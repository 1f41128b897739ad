package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

const testPoolSize = 1 << 25

func newCounter(t testing.TB, cfg Config) (*pmem.Pool, *Instance) {
	t.Helper()
	var gate sched.Gate
	if cfg.Gate != nil {
		gate = cfg.Gate
	}
	pool := pmem.New(testPoolSize, gate)
	in, err := New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pool.ResetStats()
	return pool, in
}

func mustUpdate(t testing.TB, h *Handle, code uint64, args ...uint64) (uint64, uint64) {
	t.Helper()
	ret, id, err := h.Update(code, args...)
	if err != nil {
		t.Fatalf("Update(%d, %v): %v", code, args, err)
	}
	return ret, id
}

func TestSequentialCounter(t *testing.T) {
	_, in := newCounter(t, Config{NProcs: 1})
	h := in.Handle(0)
	for i := 1; i <= 100; i++ {
		got, _ := mustUpdate(t, h, objects.CounterInc)
		if got != uint64(i) {
			t.Fatalf("inc %d: got %d", i, got)
		}
		if v := h.Read(objects.CounterGet); v != uint64(i) {
			t.Fatalf("get after inc %d: got %d", i, v)
		}
	}
}

func TestUpdateReturnValueIsAtOwnIndex(t *testing.T) {
	// Two processes incrementing: each update's return value must be
	// the counter value at the update's own execution index, so across
	// both processes the multiset of returns is exactly {1..2n}.
	_, in := newCounter(t, Config{NProcs: 2})
	const n = 500
	seen := make([]bool, 2*n+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for pid := 0; pid < 2; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < n; i++ {
				ret, _ := mustUpdate(t, h, objects.CounterInc)
				mu.Lock()
				if ret == 0 || ret > 2*n || seen[ret] {
					mu.Unlock()
					t.Errorf("p%d: duplicate or out-of-range return %d", pid, ret)
					return
				}
				seen[ret] = true
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
}

func TestE1FencesPerUpdateAtMostOne(t *testing.T) {
	for _, nprocs := range []int{1, 2, 4, 8} {
		for _, wf := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/waitfree=%v", nprocs, wf), func(t *testing.T) {
				pool, in := newCounter(t, Config{NProcs: nprocs, WaitFree: wf})
				const perProc = 200
				var wg sync.WaitGroup
				for pid := 0; pid < nprocs; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						h := in.Handle(pid)
						for i := 0; i < perProc; i++ {
							mustUpdate(t, h, objects.CounterInc)
						}
					}(pid)
				}
				wg.Wait()
				for pid := 0; pid < nprocs; pid++ {
					st := pool.StatsOf(pid)
					if st.PersistentFences != perProc {
						t.Errorf("p%d: %d persistent fences for %d updates (want exactly %d)",
							pid, st.PersistentFences, perProc, perProc)
					}
				}
			})
		}
	}
}

func TestE1ReadsNeverFence(t *testing.T) {
	pool, in := newCounter(t, Config{NProcs: 2})
	h0, h1 := in.Handle(0), in.Handle(1)
	for i := 0; i < 100; i++ {
		mustUpdate(t, h0, objects.CounterInc)
	}
	before := pool.StatsOf(1)
	for i := 0; i < 1000; i++ {
		h1.Read(objects.CounterGet)
	}
	after := pool.StatsOf(1)
	if after.PersistentFences != before.PersistentFences || after.Fences != before.Fences {
		t.Fatalf("reads fenced: before=%v after=%v", before, after)
	}
	if after.Stores != before.Stores || after.Flushes != before.Flushes {
		t.Fatalf("reads wrote to NVM: before=%v after=%v", before, after)
	}
}

func TestCrashRecoveryCleanHistory(t *testing.T) {
	pool, in := newCounter(t, Config{NProcs: 2})
	h0, h1 := in.Handle(0), in.Handle(1)
	var ids []uint64
	for i := 0; i < 10; i++ {
		_, id0 := mustUpdate(t, h0, objects.CounterInc)
		_, id1 := mustUpdate(t, h1, objects.CounterInc)
		ids = append(ids, id0, id1)
	}
	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.LastIdx != 20 {
		t.Fatalf("recovered %d ops, want 20", rep.LastIdx)
	}
	for _, id := range ids {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Errorf("completed op %#x not detected as linearized", id)
		}
	}
	if v := in2.Handle(0).Read(objects.CounterGet); v != 20 {
		t.Fatalf("post-recovery value %d, want 20", v)
	}
	// The recovered instance keeps working and ids do not collide.
	ret, _ := mustUpdate(t, in2.Handle(0), objects.CounterInc)
	if ret != 21 {
		t.Fatalf("post-recovery inc returned %d, want 21", ret)
	}
}

func TestCrashLosesUnpersistedUpdate(t *testing.T) {
	// A process that ordered its op (trace insert) but crashed before
	// the persist fence must NOT be reflected after recovery.
	ctl := sched.NewController()
	pool := pmem.New(testPoolSize, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	done0 := ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
	ctl.RunToCompletion(0)
	<-done0
	ctl.Release(0)

	ctl.Spawn(1, func() { in.Handle(1).Update(objects.CounterInc) })
	// Run p1 through ordering but stop before any NVM activity.
	if pt, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
		t.Fatalf("p1 never reached %s (at %q)", PointOrdered, pt)
	}
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	_, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 1 {
		t.Fatalf("recovered %d ops, want 1 (p1's unpersisted op must be lost)", rep.LastIdx)
	}
}

func TestHelpingPersistsDelayedProcess(t *testing.T) {
	// Execution 3 of Figure 1, crash variant: p0 orders its op and
	// stalls before persisting; p1's update helps persist p0's op.
	// After a crash, BOTH ops must be recovered (p0's op precedes
	// p1's in the linearization).
	ctl := sched.NewController()
	pool := pmem.New(testPoolSize, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
	if _, ok := ctl.RunUntil(0, sched.AtPoint(PointOrdered)); !ok {
		t.Fatal("p0 never ordered")
	}
	var ret1 uint64
	done1 := ctl.Spawn(1, func() { ret1, _, _ = in.Handle(1).Update(objects.CounterInc) })
	ctl.RunToCompletion(1)
	<-done1
	if ret1 != 2 {
		t.Fatalf("p1's increment returned %d, want 2 (it is second in the order)", ret1)
	}
	// p0 is still stalled; its op is visible to readers only through
	// p1's available flag (helping linearizes it).
	if v := in.Handle(1).Read(objects.CounterGet); v != 2 {
		t.Fatalf("read %d, want 2", v)
	}
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	_, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 2 {
		t.Fatalf("recovered %d ops, want 2 (helping must persist p0's op)", rep.LastIdx)
	}
}

func TestDetectabilityOfInFlightOp(t *testing.T) {
	// An op that persisted but whose available flag was never set IS
	// linearized (case 2 of the linearization-point definition) and
	// must be detectable after the crash.
	ctl := sched.NewController()
	pool := pmem.New(testPoolSize, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
	if _, ok := ctl.RunUntil(0, sched.AtPoint(PointPersisted)); !ok {
		t.Fatal("p0 never persisted")
	}
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	_, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 1 {
		t.Fatalf("recovered %d ops, want 1", rep.LastIdx)
	}
	if _, ok := rep.WasLinearized(spec.MakeID(0, 1)); !ok {
		t.Fatal("persisted-but-unflagged op not detected")
	}
}

func TestRecoveryAcrossAllObjects(t *testing.T) {
	type step struct {
		code uint64
		args []uint64
	}
	cases := map[string][]step{
		"counter":    {{objects.CounterInc, nil}, {objects.CounterAdd, []uint64{41}}},
		"stack":      {{objects.StackPush, []uint64{7}}, {objects.StackPush, []uint64{8}}, {objects.StackPop, nil}},
		"queue":      {{objects.QueueEnq, []uint64{7}}, {objects.QueueEnq, []uint64{8}}, {objects.QueueDeq, nil}},
		"map":        {{objects.MapPut, []uint64{1, 10}}, {objects.MapPut, []uint64{2, 20}}, {objects.MapDel, []uint64{1}}},
		"set":        {{objects.SetAdd, []uint64{5}}, {objects.SetAdd, []uint64{6}}, {objects.SetRemove, []uint64{5}}},
		"pqueue":     {{objects.PQInsert, []uint64{9}}, {objects.PQInsert, []uint64{3}}, {objects.PQExtractMin, nil}},
		"deque":      {{objects.DequePushBack, []uint64{1}}, {objects.DequePushFront, []uint64{2}}, {objects.DequePopBack, nil}},
		"applog":     {{objects.LogAppend, []uint64{11}}, {objects.LogAppend, []uint64{22}}},
		"bank":       {{objects.BankDeposit, []uint64{1, 100}}, {objects.BankTransfer, []uint64{1, 2, 40}}},
		"register":   {{objects.RegisterWrite, []uint64{77}}},
		"orderedmap": {{objects.OMapPut, []uint64{5, 50}}, {objects.OMapPut, []uint64{2, 20}}, {objects.OMapDel, []uint64{5}}},
	}
	for _, sp := range objects.All() {
		steps, ok := cases[sp.Name()]
		if !ok {
			t.Fatalf("no recovery case for object %q", sp.Name())
		}
		t.Run(sp.Name(), func(t *testing.T) {
			pool := pmem.New(testPoolSize, nil)
			in, err := New(pool, sp, Config{NProcs: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := in.Handle(0)
			var want []spec.Op
			for _, s := range steps {
				_, id, err := h.Update(s.code, s.args...)
				if err != nil {
					t.Fatal(err)
				}
				op := spec.Op{Code: s.code, ID: id}
				copy(op.Args[:], s.args)
				want = append(want, op)
			}
			pool.Crash(pmem.DropAll)
			in2, rep, err := Recover(pool, sp, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if int(rep.LastIdx) != len(steps) {
				t.Fatalf("recovered %d ops, want %d", rep.LastIdx, len(steps))
			}
			wantState, _ := spec.Replay(sp, want)
			gotState := replayInstance(t, in2, sp)
			if !spec.Equal(wantState, gotState) {
				t.Fatalf("post-recovery state %v != replay %v", gotState.Snapshot(), wantState.Snapshot())
			}
		})
	}
}

// replayInstance reconstructs the recovered state through the public read
// path of a fresh handle using the objects' full-state snapshots: we just
// grab the trace and replay it, which is exactly what a reader does.
func replayInstance(t *testing.T, in *Instance, sp spec.Spec) spec.State {
	t.Helper()
	h := in.Handle(0)
	// Any read advances/builds state; we use the internal compute by
	// issuing a cheap read first, then replaying the trace directly.
	node := in.Trace().Tail(0)
	st := sp.New()
	for cur := node; cur != nil; cur = cur.Next() {
	}
	// Collect backward.
	var ops []spec.Op
	for cur := node; cur != nil && cur.Idx() > 0; cur = cur.Next() {
		ops = append([]spec.Op{cur.Op}, ops...)
	}
	for _, op := range ops {
		st.Apply(op)
	}
	_ = h
	return st
}

func TestLocalViewsMatchFreshReplay(t *testing.T) {
	poolA := pmem.New(testPoolSize, nil)
	inA, _ := New(poolA, objects.MapSpec{}, Config{NProcs: 2, LocalViews: true})
	poolB := pmem.New(testPoolSize, nil)
	inB, _ := New(poolB, objects.MapSpec{}, Config{NProcs: 2, LocalViews: false})
	for i := uint64(0); i < 200; i++ {
		for pid := 0; pid < 2; pid++ {
			k, v := (i*7+uint64(pid))%32, i
			ra, _, _ := inA.Handle(pid).Update(objects.MapPut, k, v)
			rb, _, _ := inB.Handle(pid).Update(objects.MapPut, k, v)
			if ra != rb {
				t.Fatalf("update %d/%d: local-view ret %d != fresh ret %d", i, pid, ra, rb)
			}
			ga, gb := inA.Handle(pid).Read(objects.MapGet, k), inB.Handle(pid).Read(objects.MapGet, k)
			if ga != gb {
				t.Fatalf("read %d/%d: local-view %d != fresh %d", i, pid, ga, gb)
			}
		}
	}
}

func TestCompactionKeepsSemanticsAndBoundsLog(t *testing.T) {
	pool := pmem.New(testPoolSize, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, CompactEvery: 10, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	const n = 1000 // far more ops than LogCapacity: only works if truncation works
	for i := 1; i <= n; i++ {
		ret, _ := mustUpdate(t, h, objects.CounterInc)
		if ret != uint64(i) {
			t.Fatalf("inc %d returned %d", i, ret)
		}
	}
	if got := in.Log(0).Len(); got > 21 {
		t.Fatalf("log holds %d live records; compaction should bound it near 2*CompactEvery", got)
	}
	if v := h.Read(objects.CounterGet); v != n {
		t.Fatalf("read %d, want %d", v, n)
	}
	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseIdx == 0 {
		t.Fatal("recovery found no snapshot despite compaction")
	}
	if v := in2.Handle(0).Read(objects.CounterGet); v != n {
		t.Fatalf("post-recovery value %d, want %d", v, n)
	}
}

func TestCompactionConcurrent(t *testing.T) {
	pool := pmem.New(testPoolSize, nil)
	const nprocs = 4
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: nprocs, CompactEvery: 8, LogCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	const perProc = 300
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < perProc; i++ {
				mustUpdate(t, h, objects.CounterInc)
				if i%5 == 0 {
					h.Read(objects.CounterGet)
				}
			}
		}(pid)
	}
	wg.Wait()
	if v := in.Handle(0).Read(objects.CounterGet); v != nprocs*perProc {
		t.Fatalf("final value %d, want %d", v, nprocs*perProc)
	}
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v := in2.Handle(0).Read(objects.CounterGet); v != nprocs*perProc {
		t.Fatalf("post-recovery value %d, want %d", v, nprocs*perProc)
	}
}

func TestE11LockFreedomStalledProcessBlocksNobody(t *testing.T) {
	// Stall p0 at each of its pipeline points in turn; p1 must always
	// be able to complete updates and reads.
	points := []string{PointOrdered, PointPersisted, "trace.cas-tail", "pmem.pfence"}
	for _, pt := range points {
		t.Run(pt, func(t *testing.T) {
			ctl := sched.NewController()
			pool := pmem.New(testPoolSize, ctl)
			in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, Gate: ctl})
			if err != nil {
				t.Fatal(err)
			}
			ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
			if _, ok := ctl.RunUntil(0, sched.AtPoint(pt)); !ok {
				t.Skipf("p0 finished before reaching %s", pt)
			}
			var reads, updates int
			done := ctl.Spawn(1, func() {
				h := in.Handle(1)
				for i := 0; i < 20; i++ {
					if _, _, err := h.Update(objects.CounterInc); err == nil {
						updates++
					}
					h.Read(objects.CounterGet)
					reads++
				}
			})
			ctl.RunToCompletion(1)
			if r := <-done; r != nil {
				t.Fatalf("p1 failed while p0 stalled at %s: %v", pt, r)
			}
			if updates != 20 || reads != 20 {
				t.Fatalf("p1 completed %d updates / %d reads, want 20/20", updates, reads)
			}
			ctl.KillAll()
		})
	}
}

func TestRecoverOnUninitializedPoolFails(t *testing.T) {
	pool := pmem.New(testPoolSize, nil)
	if _, _, err := Recover(pool, objects.CounterSpec{}, Config{}); err == nil {
		t.Fatal("Recover on an empty pool should fail")
	}
}

// TestRecoverReadsEachLogOnce pins that recovery reads each log once. On
// a crashed image of 1 024 keys over two logs, each with a chain base,
// a delta and a log tail, Recover issues exactly the pmem loads of
// opening every log plus its root-table reads (the magic, the process
// count and one log pointer per process): neither the slots nor the
// chain bodies are read a second time.
func TestRecoverReadsEachLogOnce(t *testing.T) {
	const nprocs, keys = 2, 1024
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.MapSpec{}, Config{NProcs: nprocs, LogCapacity: 1024, CompactEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	// One process after the other, so neither cut lands in the other's
	// window: p0 puts keys 0..599 and p1 keys 424..1023, each cutting a
	// base at its 256th update and a delta at its 512th.
	const perProc = 600
	for pid := 0; pid < nprocs; pid++ {
		for i := 0; i < perProc; i++ {
			k := uint64(pid*(keys-perProc) + i)
			if _, _, err := in.Handle(pid).Update(objects.MapPut, k, k+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pid := 0; pid < nprocs; pid++ {
		if l := in.Log(pid); l.ChainLen() < 2 || l.Len() < 2 {
			t.Fatalf("setup: p%d log holds %d records and a chain of %d links, want a base, a delta and a tail",
				pid, l.Len(), l.ChainLen())
		}
	}
	pool.Crash(pmem.DropAll)

	var open uint64
	for pid := 0; pid < nprocs; pid++ {
		base := pmem.Addr(pool.Root(rootLogBase + pid))
		before := pool.TotalStats().Loads
		if _, err := plog.Open(pool, pid, base); err != nil {
			t.Fatal(err)
		}
		open += pool.TotalStats().Loads - before
	}
	pool.Crash(pmem.DropAll)
	pool.ResetStats()
	if _, rep, err := Recover(pool, objects.MapSpec{}, Config{}); err != nil || rep.LastIdx != nprocs*perProc {
		t.Fatalf("recovery: %v (LastIdx %d)", err, rep.LastIdx)
	}
	if got, want := pool.TotalStats().Loads, open+2+nprocs; got != want {
		t.Fatalf("Recover issued %d loads, want %d: %d opening the logs + %d root reads (%.2fx)",
			got, want, open, 2+nprocs, float64(got)/float64(want))
	}
}

func TestDoubleCrash(t *testing.T) {
	pool, in := newCounter(t, Config{NProcs: 2})
	for i := 0; i < 5; i++ {
		mustUpdate(t, in.Handle(0), objects.CounterInc)
	}
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustUpdate(t, in2.Handle(1), objects.CounterInc)
	}
	pool.Crash(pmem.DropAll)
	in3, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 10 {
		t.Fatalf("after second recovery: %d ops, want 10", rep.LastIdx)
	}
	if v := in3.Handle(0).Read(objects.CounterGet); v != 10 {
		t.Fatalf("value %d, want 10", v)
	}
}

func TestCrashWithRandomOracles(t *testing.T) {
	// Whatever subset of in-flight lines survives, recovery must yield
	// a consistent prefix of the completed history.
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctl := sched.NewController()
			pool := pmem.New(testPoolSize, ctl)
			in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, Gate: ctl})
			if err != nil {
				t.Fatal(err)
			}
			ctl.Spawn(0, func() {
				h := in.Handle(0)
				for i := 0; i < 10; i++ {
					h.Update(objects.CounterInc)
				}
			})
			ctl.Spawn(1, func() {
				h := in.Handle(1)
				for i := 0; i < 10; i++ {
					h.Update(objects.CounterInc)
				}
			})
			// Interleave a bounded number of steps, then crash.
			for i := 0; i < int(50+seed*37); i++ {
				ctl.StepN(int(seed+uint64(i))%2, 3)
			}
			ctl.KillAll()
			pool.Crash(pmem.SeededOracle(seed, 1, 2))
			_, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.LastIdx > 20 {
				t.Fatalf("recovered %d ops out of at most 20 invoked", rep.LastIdx)
			}
			// Consistency: the recovered set must be a prefix of the
			// execution order, which Recover already verifies by index
			// contiguity; here we re-verify value = count.
			in2, _, _ := Recover(pool, objects.CounterSpec{}, Config{})
			if v := in2.Handle(0).Read(objects.CounterGet); v != rep.LastIdx {
				t.Fatalf("value %d != recovered op count %d", v, rep.LastIdx)
			}
		})
	}
}
