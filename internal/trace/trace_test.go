package trace

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/spec"
)

func op(code uint64) spec.Op { return spec.Op{Code: code, ID: code} }

// implementations under test.
func traces(nprocs int) map[string]Interface {
	return map[string]Interface{
		"lockfree": NewLockFree(nil),
		"waitfree": NewWaitFree(nil, nprocs),
	}
}

// TestFreshNodesAreUnavailable pins what both Inserts rely on: they do
// not clear the available flag, so NewNode and Reinit must build the
// node unavailable, Reinit also when it reuses a node that was set
// available, linked and indexed.
func TestFreshNodesAreUnavailable(t *testing.T) {
	for name, tr := range traces(1) {
		t.Run(name, func(t *testing.T) {
			n := NewNode(op(1))
			if n.Available() || n.Idx() != 0 || n.Next() != nil {
				t.Fatalf("NewNode built %v, want unavailable, unindexed, unlinked", n)
			}
			tr.Insert(0, n)
			if n.Available() {
				t.Fatal("a NewNode node is available after Insert")
			}
			tr.SetAvailable(0, n)
			n.Reinit(op(2))
			if n.Available() || n.Idx() != 0 || n.Next() != nil || n.Op != op(2) || n.Kind != KindUpdate {
				t.Fatalf("Reinit of a used node built %v, want a fresh unavailable update node", n)
			}
			// A reused node is dead in the trace it came from; insert it
			// into a fresh one.
			traces(1)[name].Insert(0, n)
			if n.Available() || n.Idx() != 1 {
				t.Fatalf("a Reinit node after Insert is %v, want unavailable at index 1", n)
			}
		})
	}
}

func TestSequentialInsertAssignsContiguousIndices(t *testing.T) {
	for name, tr := range traces(1) {
		t.Run(name, func(t *testing.T) {
			for i := 1; i <= 100; i++ {
				n := NewNode(op(uint64(i)))
				tr.Insert(0, n)
				if n.Idx() != uint64(i) {
					t.Fatalf("insert %d got idx %d", i, n.Idx())
				}
				tr.SetAvailable(0, n)
			}
			if tr.Tail(0).Idx() != 100 {
				t.Fatalf("tail idx %d", tr.Tail(0).Idx())
			}
		})
	}
}

func TestSentinelProperties(t *testing.T) {
	for name, tr := range traces(2) {
		t.Run(name, func(t *testing.T) {
			s := tr.Sentinel()
			if s.Idx() != 0 || !s.Available() || s.Kind != KindInit {
				t.Fatalf("sentinel: %v", s)
			}
			if tr.Tail(0) != s {
				t.Fatal("empty trace tail is not the sentinel")
			}
		})
	}
}

func TestFuzzyOpsCollectsUnavailableSuffix(t *testing.T) {
	for name, tr := range traces(1) {
		t.Run(name, func(t *testing.T) {
			// n1 available, n2..n4 not: fuzzy window of n4 = {4,3,2}.
			var nodes []*Node
			for i := 1; i <= 4; i++ {
				n := NewNode(op(uint64(i)))
				tr.Insert(0, n)
				nodes = append(nodes, n)
			}
			tr.SetAvailable(0, nodes[0])
			fuzzy := GetFuzzyOpsInto(nil, sched.NopGate{}, 0, nodes[3])
			if len(fuzzy) != 3 {
				t.Fatalf("fuzzy window size %d, want 3", len(fuzzy))
			}
			// ops[k] must have execution index idx-k (Listing 1 contract).
			for k, o := range fuzzy {
				if o.Code != uint64(4-k) {
					t.Fatalf("fuzzy[%d] = op %d, want %d", k, o.Code, 4-k)
				}
			}
		})
	}
}

func TestLatestAvailableStopsAtFirstSetFlag(t *testing.T) {
	for name, tr := range traces(1) {
		t.Run(name, func(t *testing.T) {
			var nodes []*Node
			for i := 1; i <= 5; i++ {
				n := NewNode(op(uint64(i)))
				tr.Insert(0, n)
				nodes = append(nodes, n)
			}
			// Set flags out of order: 2 then 4 (Figure 2 situation).
			tr.SetAvailable(0, nodes[1])
			got := LatestAvailableFrom(sched.NopGate{}, 0, tr.Tail(0))
			if got.Idx() != 2 {
				t.Fatalf("latest available %d, want 2", got.Idx())
			}
			tr.SetAvailable(0, nodes[3])
			got = LatestAvailableFrom(sched.NopGate{}, 0, tr.Tail(0))
			if got.Idx() != 4 {
				t.Fatalf("latest available %d, want 4 (op3 is inside the non-fuzzy prefix now)", got.Idx())
			}
		})
	}
}

func TestConcurrentInsertsUniqueContiguousIndices(t *testing.T) {
	for _, kind := range []string{"lockfree", "waitfree"} {
		for _, nprocs := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", kind, nprocs), func(t *testing.T) {
				var tr Interface
				if kind == "lockfree" {
					tr = NewLockFree(nil)
				} else {
					tr = NewWaitFree(nil, nprocs)
				}
				const perProc = 2000
				var wg sync.WaitGroup
				for pid := 0; pid < nprocs; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						for i := 0; i < perProc; i++ {
							n := NewNode(op(uint64(pid*perProc + i)))
							tr.Insert(pid, n)
							tr.SetAvailable(pid, n)
						}
					}(pid)
				}
				wg.Wait()
				total := nprocs * perProc
				tail := tr.Tail(0)
				if tail.Idx() != uint64(total) {
					t.Fatalf("tail idx %d, want %d", tail.Idx(), total)
				}
				// Walk back: indices must be exactly total..1, each op
				// exactly once (no duplicates, no cycles).
				seen := make(map[uint64]bool, total)
				idx := uint64(total)
				for cur := tail; cur.Kind == KindUpdate; cur = cur.Next() {
					if cur.Idx() != idx {
						t.Fatalf("walk: idx %d, want %d", cur.Idx(), idx)
					}
					if seen[cur.Op.ID] {
						t.Fatalf("op %d appears twice", cur.Op.ID)
					}
					seen[cur.Op.ID] = true
					idx--
				}
				if idx != 0 {
					t.Fatalf("walk ended at %d, want 0", idx)
				}
			})
		}
	}
}

func TestProposition52FuzzyWindowBounded(t *testing.T) {
	// E4: at any instant, among any nprocs+1 consecutive nodes at
	// least one is available — verified by concurrent sampling while
	// insertions are running (each process sets its previous node
	// available before inserting the next, as ONLL does).
	const nprocs = 6
	for _, kind := range []string{"lockfree", "waitfree"} {
		t.Run(kind, func(t *testing.T) {
			var tr Interface
			if kind == "lockfree" {
				tr = NewLockFree(nil)
			} else {
				tr = NewWaitFree(nil, nprocs)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for pid := 0; pid < nprocs; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					for i := 0; i < 3000; i++ {
						n := NewNode(op(uint64(pid*3000 + i)))
						tr.Insert(pid, n)
						tr.SetAvailable(pid, n)
					}
				}(pid)
			}
			violations := 0
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Sample a window of nprocs+1 consecutive nodes
					// from the tail; count availability.
					run := 0
					for cur := tr.Tail(nprocs - 1); cur != nil; cur = cur.Next() {
						if cur.Available() {
							run = 0
							break
						}
						run++
						if run > nprocs {
							violations++
							return
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			sampler.Wait()
			if violations > 0 {
				t.Fatalf("fuzzy window exceeded %d nodes", nprocs)
			}
			// Also verify the final trace directly.
			run := 0
			for cur := tr.Tail(0); cur != nil && cur.Kind == KindUpdate; cur = cur.Next() {
				if cur.Available() {
					run = 0
				} else if run++; run > nprocs {
					t.Fatal("final trace violates Proposition 5.2")
				}
			}
		})
	}
}

func TestWaitFreeStalledInserterIsHelped(t *testing.T) {
	// A process that announced its insert and stalls: another process
	// inserting afterwards completes the stalled insert.
	ctl := sched.NewController()
	tr := NewWaitFree(ctl, 2)
	n0 := NewNode(op(100))
	ctl.Spawn(0, func() { tr.Insert(0, n0) })
	// Advance p0 until it is about to do its first help-loop step; it
	// has announced (the announce itself is un-gated: the first gate
	// point is inside helpInsert).
	if _, ok := ctl.RunUntil(0, sched.AtPoint("trace.wf.help")); !ok {
		t.Fatal("p0 finished unexpectedly")
	}
	// p1 inserts; its helpAll must complete p0's insert too.
	n1 := NewNode(op(200))
	done1 := ctl.Spawn(1, func() { tr.Insert(1, n1) })
	ctl.RunToCompletion(1)
	if r := <-done1; r != nil {
		t.Fatalf("p1 insert failed: %v", r)
	}
	if n0.Idx() == 0 {
		t.Fatal("stalled insert was not helped")
	}
	if n0.Idx() == n1.Idx() {
		t.Fatal("duplicate index")
	}
	// Both nodes reachable from the tail exactly once.
	found := map[uint64]int{}
	for cur := tr.Tail(1); cur.Kind == KindUpdate; cur = cur.Next() {
		found[cur.Op.ID]++
	}
	if found[100] != 1 || found[200] != 1 {
		t.Fatalf("trace contents wrong: %v", found)
	}
	ctl.KillAll()
}

func TestCollectBack(t *testing.T) {
	tr := NewLockFree(nil)
	var nodes []*Node
	for i := 1; i <= 10; i++ {
		n := NewNode(op(uint64(i)))
		tr.Insert(0, n)
		tr.SetAvailable(0, n)
		nodes = append(nodes, n)
	}
	got, base := CollectBackInto(nil, nodes[9], 4)
	if base != nil {
		t.Fatal("unexpected base")
	}
	if len(got) != 6 {
		t.Fatalf("collected %d nodes, want 6", len(got))
	}
	for i, n := range got {
		if n.Idx() != uint64(5+i) {
			t.Fatalf("collected[%d] idx %d, want %d (oldest first)", i, n.Idx(), 5+i)
		}
	}
	// Whole history.
	got, _ = CollectBackInto(nil, nodes[9], 0)
	if len(got) != 10 || got[0].Idx() != 1 {
		t.Fatalf("full collect wrong: %d nodes", len(got))
	}
}

func TestCollectBackStopsAtBaseAndFilters(t *testing.T) {
	tr := NewLockFree(nil)
	var nodes []*Node
	for i := 1; i <= 6; i++ {
		n := NewNode(op(uint64(i)))
		tr.Insert(0, n)
		tr.SetAvailable(0, n)
		nodes = append(nodes, n)
	}
	// Compaction cut at node 4: node4.next = base(idx 4).
	base := NewBase(4, []uint64{0xB}, nil)
	nodes[3].SetNextBase(base)
	got, b := CollectBackInto(nil, nodes[5], 0)
	if b != base {
		t.Fatal("base not found")
	}
	// Nodes with idx <= base.Idx (including node 4 itself) are covered
	// by the snapshot and must be filtered out.
	if len(got) != 2 || got[0].Idx() != 5 || got[1].Idx() != 6 {
		idxs := []uint64{}
		for _, n := range got {
			idxs = append(idxs, n.Idx())
		}
		t.Fatalf("collected idxs %v, want [5 6]", idxs)
	}
	// downTo beyond the base: base reported, nothing below downTo.
	got, b = CollectBackInto(nil, nodes[5], 5)
	if b != nil && b.Idx() > 5 {
		t.Fatalf("unexpected base %v", b)
	}
	if len(got) != 1 || got[0].Idx() != 6 {
		t.Fatalf("collect downTo=5: %d nodes", len(got))
	}
}

func TestSetNextBaseValidation(t *testing.T) {
	n := NewNode(op(1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetNextBase accepted a non-base node")
		}
	}()
	n.SetNextBase(NewNode(op(2)))
}

func TestBaseNode(t *testing.T) {
	b := NewBase(17, []uint64{1, 2, 3}, []uint64{5, 6})
	if b.Idx() != 17 || !b.Available() || b.Kind != KindBase {
		t.Fatalf("base: %v", b)
	}
}

func TestSnapshotDiagnostic(t *testing.T) {
	tr := NewLockFree(nil)
	for i := 1; i <= 3; i++ {
		n := NewNode(op(uint64(i)))
		tr.Insert(0, n)
		if i != 2 {
			tr.SetAvailable(0, n)
		}
	}
	snap := Snapshot(tr.Tail(0))
	if len(snap) != 4 { // 3 updates + sentinel
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if snap[0].Idx != 3 || snap[1].Available || !snap[2].Available {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
}

func TestQuickInterleavedAvailability(t *testing.T) {
	// Property: for any pattern of availability flags set on a
	// sequential history, LatestAvailableFrom returns the highest
	// index whose flag is set (0 if none beyond the sentinel).
	f := func(flags []bool) bool {
		if len(flags) > 64 {
			flags = flags[:64]
		}
		tr := NewLockFree(nil)
		var nodes []*Node
		for i := range flags {
			n := NewNode(op(uint64(i + 1)))
			tr.Insert(0, n)
			nodes = append(nodes, n)
		}
		want := uint64(0)
		for i, f := range flags {
			if f {
				tr.SetAvailable(0, nodes[i])
				if uint64(i+1) > want {
					want = uint64(i + 1)
				}
			}
		}
		got := LatestAvailableFrom(sched.NopGate{}, 0, tr.Tail(0))
		return got.Idx() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitFreeStress(t *testing.T) {
	// Heavier adversarial stress for the helping protocol: many
	// processes, many rounds, full-structure verification each round.
	const nprocs = 8
	for round := 0; round < 20; round++ {
		tr := NewWaitFree(nil, nprocs)
		var wg sync.WaitGroup
		for pid := 0; pid < nprocs; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					n := NewNode(op(uint64(pid*1000 + i)))
					tr.Insert(pid, n)
					tr.SetAvailable(pid, n)
				}
			}(pid)
		}
		wg.Wait()
		count := 0
		prev := uint64(1 << 62)
		for cur := tr.Tail(0); cur.Kind == KindUpdate; cur = cur.Next() {
			if cur.Idx() >= prev {
				t.Fatalf("round %d: indices not strictly decreasing (%d then %d)", round, prev, cur.Idx())
			}
			prev = cur.Idx()
			count++
		}
		if count != nprocs*200 {
			t.Fatalf("round %d: %d nodes in trace, want %d", round, count, nprocs*200)
		}
	}
}

func TestEpochBumpsOnPublicationOnly(t *testing.T) {
	for name, tr := range traces(2) {
		t.Run(name, func(t *testing.T) {
			if e := tr.Epoch(0); e != 0 {
				t.Fatalf("fresh trace epoch %d, want 0", e)
			}
			n1, n2 := NewNode(op(1)), NewNode(op(2))
			tr.Insert(0, n1)
			tr.Insert(1, n2)
			if e := tr.Epoch(0); e != 0 {
				t.Fatalf("epoch %d after inserts only (publication has not happened)", e)
			}
			tr.SetAvailable(0, n1)
			if e := tr.Epoch(1); e != 1 {
				t.Fatalf("epoch %d after first publication, want 1", e)
			}
			tr.SetAvailable(1, n2)
			if e := tr.Epoch(0); e != 2 {
				t.Fatalf("epoch %d after second publication, want 2", e)
			}
			// A compaction cut publishes nothing: the visible prefix is
			// unchanged, so the epoch must not move (a moved epoch would
			// needlessly invalidate every cached view).
			n2.SetNextBase(NewBase(n2.Idx(), []uint64{42}, nil))
			if e := tr.Epoch(0); e != 2 {
				t.Fatalf("epoch %d after compaction cut, want 2", e)
			}
		})
	}
}

// TestEpochCoversAvailability is the ordering contract the read fast
// path leans on: any node whose publication an Epoch() load covers is
// found available by a walk that starts after the load.
func TestEpochCoversAvailability(t *testing.T) {
	for name, tr := range traces(2) {
		t.Run(name, func(t *testing.T) {
			var published uint64
			for i := 0; i < 200; i++ {
				n := NewNode(op(uint64(i + 1)))
				tr.Insert(0, n)
				tr.SetAvailable(0, n)
				published++
				if e := tr.Epoch(1); e != published {
					t.Fatalf("epoch %d after %d publications", e, published)
				}
				la := LatestAvailableFrom(sched.NopGate{}, 1, tr.Tail(1))
				if la.Idx() < published {
					t.Fatalf("walk after epoch load found idx %d < %d published", la.Idx(), published)
				}
			}
		})
	}
}
