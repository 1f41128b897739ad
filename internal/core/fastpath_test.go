package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// pointCounter is a gate that counts steps per point name.
type pointCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pointCounter) Step(pid int, point string) {
	p.mu.Lock()
	p.n[point]++
	p.mu.Unlock()
}

func (p *pointCounter) get(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[point]
}

// TestReadFastPathSkipsWalk pins the mechanism itself: once a read has
// validated the view against the current epoch, further reads touch no
// trace node — zero "trace.scan" and "trace.read-tail" steps — until an
// update publishes a new node, which invalidates exactly once.
func TestReadFastPathSkipsWalk(t *testing.T) {
	gate := &pointCounter{n: map[string]int{}}
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, Gate: gate, LogCapacity: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	if _, _, err := h0.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	h0.Read(objects.CounterGet) // validates the view against the epoch
	scans, tails := gate.get("trace.scan"), gate.get("trace.read-tail")
	for i := 0; i < 100; i++ {
		if got := h0.Read(objects.CounterGet); got != 1 {
			t.Fatalf("read %d, want 1", got)
		}
	}
	if s, tl := gate.get("trace.scan"), gate.get("trace.read-tail"); s != scans || tl != tails {
		t.Fatalf("epoch-valid reads walked the trace: scans %d->%d, tail reads %d->%d", scans, s, tails, tl)
	}
	// A foreign update bumps the epoch: the next read must walk (and
	// observe the new value), the ones after it must not.
	if _, _, err := h1.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	if got := h0.Read(objects.CounterGet); got != 2 {
		t.Fatalf("read %d after foreign update, want 2", got)
	}
	scans, tails = gate.get("trace.scan"), gate.get("trace.read-tail")
	for i := 0; i < 100; i++ {
		h0.Read(objects.CounterGet)
	}
	if s, tl := gate.get("trace.scan"), gate.get("trace.read-tail"); s != scans || tl != tails {
		t.Fatalf("revalidated reads walked the trace: scans %d->%d, tail reads %d->%d", scans, s, tails, tl)
	}
}

// TestReadFastPathEquivalence replays identical single-process op
// streams against a fast-path-on and a fast-path-off instance for every
// shipped object: every return value must match — the fast path is an
// optimization, never a semantic.
func TestReadFastPathEquivalence(t *testing.T) {
	for _, sp := range objects.All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			gen := workload.NewGenerator(sp)
			steps := gen.Stream(77, 400, 50)
			var rets [2][]uint64
			for leg, fast := range map[int]bool{0: false, 1: true} {
				pool := pmem.New(1<<24, nil)
				in, err := New(pool, sp, Config{
					NProcs: 1, LocalViews: true, ReadFastPath: fast,
					CompactEvery: 16, LogCapacity: 2048,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := in.Handle(0)
				for _, st := range steps {
					if st.IsUpdate {
						ret, _, err := h.Update(st.Code, st.Args...)
						if err != nil {
							t.Fatal(err)
						}
						rets[leg] = append(rets[leg], ret)
					} else {
						rets[leg] = append(rets[leg], h.Read(st.Code, st.Args...))
					}
				}
			}
			for i := range rets[0] {
				if rets[0][i] != rets[1][i] {
					t.Fatalf("step %d: fast-path-off returned %d, on returned %d", i, rets[0][i], rets[1][i])
				}
			}
		})
	}
}

// TestLaggingReaderUnderCompaction drives a lagging reader against a
// compacting writer deterministically: the reader's rare reads land far
// behind a writer that has cut the trace several times, so each one
// restores from a base and replays the window above it — the result
// must agree with the reference value.
func TestLaggingReaderUnderCompaction(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, CompactEvery: 16, LogCapacity: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, r := in.Handle(0), in.Handle(1)
	rng := rand.New(rand.NewSource(5))
	var done uint64
	for round := 0; round < 40; round++ {
		burst := 40 + rng.Intn(120)
		for i := 0; i < burst; i++ {
			if _, _, err := w.Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
			done++
		}
		if got := r.Read(objects.CounterGet); got != done {
			t.Fatalf("round %d: lagging reader saw %d, want %d", round, got, done)
		}
	}
}

// TestIdleHandleRestoresFromNewestBase pins how a cold handle catches
// up on the pipeline shape: idle across several chain-base cuts, its
// next read returns the current value, leaves the view at the tail, and
// got there by restoring the newest base and replaying only the window
// above it — not by replaying its whole lag from its stale index.
func TestIdleHandleRestoresFromNewestBase(t *testing.T) {
	const cutEvery, chain, keys = 8, 4, 256
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.OrderedMapSpec{}, Config{
		NProcs: 2, ReadFastPath: true, DeltaSnapshots: true,
		CompactEvery: cutEvery, MaxDeltaChain: chain, LogCapacity: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, r := in.Handle(0), in.Handle(1)
	put := func(k, v uint64) {
		t.Helper()
		if _, _, err := w.Update(objects.OMapPut, k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		put(k, 0)
	}
	if got := r.Read(objects.OMapLen); got != keys {
		t.Fatalf("initial read: len %d, want %d", got, keys)
	}
	before := in.CompactionStats()
	const lag = 20 * cutEvery * chain
	for i := uint64(1); i <= lag; i++ {
		put(i%keys, i)
	}
	after := in.CompactionStats()
	if after.Bases-before.Bases < 2 || after.Deltas == before.Deltas {
		t.Fatalf("reader idled across %d base and %d delta cuts; the test needs at least 2 bases with deltas between",
			after.Bases-before.Bases, after.Deltas-before.Deltas)
	}
	if got := r.Read(objects.OMapGet, lag%keys); got != lag {
		t.Fatalf("idle reader saw %d under the last key written, want %d", got, lag)
	}
	if tail := in.tr.Tail(r.pid).Idx(); r.viewIdx != tail {
		t.Fatalf("view left at %d, trace tail is %d", r.viewIdx, tail)
	}
	// The walk stops at the newest base, so at most one chain's worth of
	// cut windows is replayed however long the handle idled.
	if n := len(r.nodeBuf); n > cutEvery*chain {
		t.Fatalf("catch-up replayed %d nodes for a lag of %d; want at most %d (restore from the newest base)", n, lag, cutEvery*chain)
	}
}
