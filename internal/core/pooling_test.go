package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// TestNodePoolingFeedsFreelist pins the reclamation pipeline: after a
// few compaction cycles the handle's own ring holds its nodes, and the
// next updates reuse them (no fresh allocation) while the object stays
// correct.
func TestNodePoolingFeedsFreelist(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, LogCapacity: 256, LocalViews: true, CompactEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	update := func() {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	const n = 321 // ten compaction cycles, the tenth cut in the last update's order stage
	for i := 0; i < n; i++ {
		update()
	}
	kept := h.own.n
	if kept == 0 || kept >= n {
		t.Fatalf("own ring holds %d nodes after %d updates; want some, reused", kept, n)
	}
	// The next updates must reuse the ring's oldest nodes...
	objs, _ := heapDelta(func() {
		for i := 0; i < 8; i++ {
			update()
		}
	})
	if objs != 0 || h.own.n != kept {
		t.Fatalf("8 updates allocated %d heap objects, ring %d -> %d; want 0, unchanged", objs, kept, h.own.n)
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
	// Every allocated node joins its handle's ring, and the ring forgets
	// none below its cap: per minus the ring's size is the reuse count.
	reused := 0
	for pid := 0; pid < nprocs; pid++ {
		reused += per - in.Handle(pid).own.n
	}
	if reused == 0 {
		t.Fatal("no nodes were recycled across any handle")
	}
}

// TestMinorityUpdaterRecycles pins reuse for a handle that seldom cuts:
// p1 updates once per CompactEvery of p0's updates, so nearly every
// base splice above p1's nodes is p0's. p1 must still reuse its own
// nodes. Between its own cuts p1's floor rests at its chain head (its
// delta walk descends there), so it reuses the nodes of its previous
// cycle, and its first two cycles fill the ring; from then on its
// updates between its own cuts allocate nothing.
func TestMinorityUpdaterRecycles(t *testing.T) {
	const ce, rounds = 64, 4 * 64
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, LocalViews: true, CompactEvery: ce,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	update := func(h *Handle) {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	var objs, measured uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < ce; i++ {
			update(h0)
		}
		if r < 2*ce || h1.sinceCompact == ce {
			update(h1) // warm-up, or p1's own cut in its order stage
			continue
		}
		o, _ := heapDelta(func() { update(h1) })
		objs += o
		measured++
	}
	if got := h0.Read(objects.CounterGet); got != rounds*(ce+1) {
		t.Fatalf("counter reads %d, want %d", got, rounds*(ce+1))
	}
	if objs != 0 {
		t.Fatalf("p1's %d updates between its cuts allocated %d heap objects, want 0", measured, objs)
	}
}

// TestReuseWaitsForSplice pins the cut bound of the reuse rule (see
// Handle.floor): a node above the newest splice is still on the live
// trace, so no walk floor covers the walk of a handle that starts
// later. p0 lays a base at 8; p1 orders nodes 10..17, p2 reads there
// and goes idle with its view at 17, and p1 parks in the order stage
// that will cut at 17. p0 orders nodes 18..25 and cuts a delta at 24
// on the way, so p0's floor rests at 24. p1 then splices its base at
// 17. p0 reuses its own nodes below 17 and parks in the insert after
// that, with the node it draws reinitialised. p2's next read walks from
// the tail down to 17 and must see p0's put at 18. Reusing below
// walkLimit alone (21 here), p0 draws node 18 and the read stops there,
// missing key 9.
func TestReuseWaitsForSplice(t *testing.T) {
	const ce = 8
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 3, LogCapacity: 256, CompactEvery: ce, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1, h2 := in.Handle(0), in.Handle(1), in.Handle(2)
	// p0 and p1 run on the test goroutine (never parked) until spawned.
	next := uint64(0)
	put0 := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if _, _, err := h0.Update(objects.MapPut, next, next+1); err != nil {
				panic(err)
			}
			next++
		}
	}
	put1 := func(i uint64) {
		if _, _, err := h1.Update(objects.MapPut, 1000+i, i+1); err != nil {
			panic(err)
		}
	}
	const s = 2*ce + 1
	put0(ce + 1) // nodes 1..9, base at 8 in the ninth's order stage
	for i := uint64(0); i < ce; i++ {
		put1(i) // nodes 10..17
	}
	h2.Read(objects.MapLen) // p2's view at s
	done1 := ctl.Spawn(1, func() { put1(ce) })
	if _, ok := ctl.RunUntil(1, sched.AtPoint("trace.scan")); !ok {
		t.Fatal("p1 finished early")
	}
	put0(ce) // nodes 18..25, delta at 24
	ctl.RunToCompletion(1)
	if out := <-done1; out != nil {
		t.Fatal(out)
	}
	if c := in.cutIdx.Load(); c != s || in.Log(0).ChainHead() != 3*ce {
		t.Fatalf("cut index %d, p0's chain head %d; want %d, %d", c, in.Log(0).ChainHead(), s, 3*ce)
	}
	// p0's updates reuse its ring's nodes below s, oldest first; the
	// next one draws node s+1, or a fresh node.
	below := 0
	for r := &h0.own; below < r.n && r.buf[(r.head+below)%len(r.buf)].Idx() < s; below++ {
	}
	if below+h0.sinceCompact >= ce {
		t.Fatalf("%d reuses from a count of %d reach a cut; the parked insert would be the cut's tail read", below, h0.sinceCompact)
	}
	done0 := ctl.Spawn(0, func() { put0(below + 1) })
	for i := 0; i < below; i++ {
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatal("p0 finished early")
		}
	}
	if _, ok := ctl.RunUntil(0, sched.AtPoint("trace.read-tail")); !ok {
		t.Fatal("p0 finished early")
	}
	if got := h2.Read(objects.MapGet, ce+1); got != ce+2 {
		t.Fatalf("p2 reads key %d as %d, want %d", ce+1, got, ce+2)
	}
	ctl.RunToCompletion(0)
	if out := <-done0; out != nil {
		t.Fatal(out)
	}
	for k := uint64(0); k < next; k++ {
		if got := h2.Read(objects.MapGet, k); got != k+1 {
			t.Fatalf("p2 reads key %d as %d, want %d", k, got, k+1)
		}
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
