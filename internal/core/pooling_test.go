package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestNodePoolingFeedsFreelist pins the reclamation pipeline: after a
// few compaction cycles the cutter's freelist holds recycled nodes, and
// subsequent updates consume them (no fresh allocation) while the
// object stays correct.
func TestNodePoolingFeedsFreelist(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, LogCapacity: 256, LocalViews: true, CompactEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	const n = 320 // ten compaction cycles
	for i := 0; i < n; i++ {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.freeNodes)+len(h.retired) == 0 {
		t.Fatal("compaction recycled no trace nodes")
	}
	free := len(h.freeNodes)
	if free == 0 {
		t.Fatal("no retired node was promoted to the freelist")
	}
	// The next updates must draw from the freelist...
	for i := 0; i < 8; i++ {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.freeNodes); got != free-8 {
		t.Fatalf("freelist %d -> %d after 8 updates, want %d", free, got, free-8)
	}
	// ...and the object must still compute correctly on recycled nodes.
	if got := h.Read(objects.CounterGet); got != n+8 {
		t.Fatalf("counter reads %d, want %d", got, n+8)
	}
}

// TestNodePoolingConcurrentCorrectness hammers pooling with compaction
// from every handle plus concurrent readers (run under -race in CI):
// recycled nodes must never surface stale state.
func TestNodePoolingConcurrentCorrectness(t *testing.T) {
	const nprocs, per = 4, 600
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: nprocs, LogCapacity: 512, LocalViews: true, CompactEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			var last uint64
			for i := 0; i < per; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
				// Counter reads must be monotone from any one process's
				// point of view (it sees at least its own updates).
				if got := h.Read(objects.CounterGet); got < last {
					panic("non-monotone counter read")
				} else {
					last = got
				}
			}
		}(pid)
	}
	wg.Wait()
	if got := in.Handle(0).Read(objects.CounterGet); got != nprocs*per {
		t.Fatalf("counter %d after %d updates", got, nprocs*per)
	}
	reused := 0
	for pid := 0; pid < nprocs; pid++ {
		reused += len(in.Handle(pid).freeNodes) + len(in.Handle(pid).retired)
	}
	if reused == 0 {
		t.Fatal("no nodes were recycled across any handle")
	}
}

// TestUpdateSteadyStateZeroAllocs pins the tentpole number: with local
// views and compaction warm, an update performs zero allocations. The
// counter case measures a window clear of any cut; the churn case
// measures whole cut cycles of a 1 MiB ordered map — base cuts, the
// deltas between them and the node pool across the trace window the
// chain keeps — where every base used to allocate the state twice and
// half the updates a fresh trace node (0.50 allocs, 336 B per update).
func TestUpdateSteadyStateZeroAllocs(t *testing.T) {
	t.Run("counter", func(t *testing.T) {
		pool := pmem.New(1<<24, nil)
		in, err := New(pool, objects.CounterSpec{}, Config{
			NProcs: 1, LogCapacity: 1 << 11, LocalViews: true, CompactEvery: 1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := in.Handle(0)
		for i := 0; i < 3<<10; i++ { // three compaction cycles of warm-up
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
		// Measure a window that stays clear of the next compaction.
		avg := testing.AllocsPerRun(100, func() {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("steady-state update allocates %.2f objects/op, want 0", avg)
		}
	})
	t.Run("churn64k", func(t *testing.T) {
		const keys = 1 << 16
		pool := pmem.New(1<<25, nil)
		in, err := New(pool, objects.OrderedMapSpec{}, Config{
			NProcs: 1, ReadFastPath: true, DeltaSnapshots: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := in.Handle(0)
		update := func(code, k uint64) {
			if _, _, err := h.Update(code, k, k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < keys; k++ {
			update(objects.OMapPut, k)
		}
		// A sliding window: put a key above the map, delete its minimum.
		lo, hi := uint64(0), uint64(keys)
		slide := func(updates int) {
			for i := 0; i < updates; i += 2 {
				update(objects.OMapPut, hi)
				update(objects.OMapDel, lo)
				hi, lo = hi+1, lo+1
			}
		}
		cycle := in.cfg.MaxDeltaChain * h.cutEvery() // updates per base cut
		slide(2 * cycle)
		before := in.CompactionStats()
		objs, bytes := heapDelta(func() { slide(2 * cycle) })
		n := uint64(2 * cycle)
		t.Logf("%d updates: %d heap objects, %d B", n, objs, bytes)
		st := in.CompactionStats()
		if bases, deltas := st.Bases-before.Bases, st.Deltas-before.Deltas; bases < 2 || deltas < bases {
			t.Fatalf("window of %d updates cut %d bases and %d deltas; want whole cycles", n, bases, deltas)
		}
		// Each base cut allocates its trace node; per update that reads
		// 0.00 objects and 0 B.
		if objs*100 >= n || bytes >= n {
			t.Fatalf("update allocates %.2f objects and %.0f B over whole cut cycles, want 0.00 and 0",
				float64(objs)/float64(n), float64(bytes)/float64(n))
		}
	})
}

// heapDelta runs f on one P, as testing.AllocsPerRun does, and returns
// the heap objects and bytes it allocated.
func heapDelta(f func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
