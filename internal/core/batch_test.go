package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

func TestBatchAmortizesFences(t *testing.T) {
	// The point of the batch entry point: one persistent fence per
	// Flush, not per op.
	pool, in := newCounter(t, Config{NProcs: 1, LogMaxOps: 64})
	b := in.Handle(0).NewBatch()
	const flushes, per = 8, 16
	want := uint64(0)
	for f := 0; f < flushes; f++ {
		for i := 0; i < per; i++ {
			want++
			ret, _, err := b.Stage(objects.CounterInc)
			if err != nil {
				t.Fatalf("Stage: %v", err)
			}
			if ret != want {
				t.Fatalf("stage %d returned %d, want %d", want, ret, want)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if got := in.Handle(0).Read(objects.CounterGet); got != want {
		t.Fatalf("read %d, want %d", got, want)
	}
	pf := pool.TotalStats().PersistentFences
	if pf != flushes {
		t.Fatalf("%d persistent fences for %d flushes, want exactly one per flush", pf, flushes)
	}
}

func TestBatchFullAndErr(t *testing.T) {
	_, in := newCounter(t, Config{NProcs: 1, LogMaxOps: 4})
	b := in.Handle(0).NewBatch()
	for i := 0; i < 4; i++ {
		if _, _, err := b.Stage(objects.CounterInc); err != nil {
			t.Fatalf("Stage %d: %v", i, err)
		}
	}
	if _, _, err := b.Stage(objects.CounterInc); !errors.Is(err, ErrBatchFull) {
		t.Fatalf("overfull Stage: err = %v, want ErrBatchFull", err)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, err := b.Stage(objects.CounterInc); err != nil {
		t.Fatalf("Stage after flush: %v", err)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", b.Pending())
	}
}

func TestBatchCrashSplitsAtFlush(t *testing.T) {
	// Flushed batch survives the crash; a staged-but-unflushed batch is
	// lost, and the loss is detectable per op id (WasLinearized false).
	// Readers see the fence's side only.
	pool, in := newCounter(t, Config{NProcs: 2, LogMaxOps: 32})
	b := in.Handle(0).NewBatch()
	var durable, lost []uint64
	for i := 0; i < 4; i++ {
		_, id, err := b.Stage(objects.CounterInc)
		if err != nil {
			t.Fatal(err)
		}
		durable = append(durable, id)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, id, err := b.Stage(objects.CounterInc)
		if err != nil {
			t.Fatal(err)
		}
		lost = append(lost, id)
	}
	// Before the crash only the 4 flushed ops are linearized: a read on
	// another handle does not see the 3 staged ones.
	if v := in.Handle(1).Read(objects.CounterGet); v != 4 {
		t.Fatalf("pre-crash read %d, want 4", v)
	}
	pool.Crash(pmem.DropAll)
	rin, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 4 {
		t.Fatalf("recovered %d ops, want the 4 flushed", rep.LastIdx)
	}
	for _, id := range durable {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("flushed op %#x not recovered", id)
		}
	}
	for _, id := range lost {
		if _, ok := rep.WasLinearized(id); ok {
			t.Fatalf("unflushed op %#x reported linearized after crash", id)
		}
	}
	if v := rin.Handle(0).Read(objects.CounterGet); v != 4 {
		t.Fatalf("post-recovery read %d, want 4", v)
	}
}

func TestBatchFlushHelpsDelayedProcess(t *testing.T) {
	// A flush's record covers the helping tail exactly like Update's
	// fuzzy window: p1 orders an op and stalls before persisting; p0's
	// batch flush must persist it under the batch's single fence.
	ctl := sched.NewController()
	pool := pmem.New(testPoolSize, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, LogMaxOps: 16, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Spawn(1, func() { in.Handle(1).Update(objects.CounterInc) })
	if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
		t.Fatal("p1 never ordered")
	}
	done0 := ctl.Spawn(0, func() {
		b := in.Handle(0).NewBatch()
		for i := 0; i < 3; i++ {
			if _, _, serr := b.Stage(objects.CounterInc); serr != nil {
				t.Errorf("Stage: %v", serr)
			}
		}
		if ferr := b.Flush(); ferr != nil {
			t.Errorf("Flush: %v", ferr)
		}
	})
	ctl.RunToCompletion(0)
	<-done0
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	_, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 4 {
		t.Fatalf("recovered %d ops, want 4 (p1's stalled op + 3 batched)", rep.LastIdx)
	}
	if _, ok := rep.WasLinearized(spec.MakeID(1, 1)); !ok {
		t.Fatal("p1's helped op not recovered by the batch flush")
	}
}

func TestBatchWithCompaction(t *testing.T) {
	// Batches drive the compaction cadence by ops flushed, and recovery
	// from a snapshot base reconstructs the batched history.
	pool, in := newCounter(t, Config{NProcs: 1, LogMaxOps: 16, CompactEvery: 8})
	b := in.Handle(0).NewBatch()
	const total = 40
	for i := 0; i < total/4; i++ {
		for j := 0; j < 4; j++ {
			if _, _, err := b.Stage(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if v := in.Handle(0).Read(objects.CounterGet); v != total {
		t.Fatalf("read %d, want %d", v, total)
	}
	pool.Crash(pmem.DropAll)
	rin, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != total {
		t.Fatalf("recovered LastIdx %d, want %d", rep.LastIdx, total)
	}
	if v := rin.Handle(0).Read(objects.CounterGet); v != total {
		t.Fatalf("post-recovery read %d, want %d", v, total)
	}
}

func TestBatchHoldsHandleWhileStaged(t *testing.T) {
	// The batch's handle is entered from the first Stage to the covering
	// Flush: its view already holds the staged ops, which are not yet
	// linearized, so Read and Update on it must refuse.
	_, in := newCounter(t, Config{NProcs: 2, LogMaxOps: 8, LocalViews: true})
	h := in.Handle(0)
	b := h.NewBatch()
	if _, _, err := b.Stage(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func(){
		"Read":   func() { h.Read(objects.CounterGet) },
		"Update": func() { h.Update(objects.CounterInc) },
	} {
		func() {
			defer func() {
				if r := recover(); r != errBusy {
					t.Fatalf("%s on a handle with staged ops: recovered %v, want errBusy", name, r)
				}
			}()
			op()
		}()
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	if v := h.Read(objects.CounterGet); v != 2 {
		t.Fatalf("read after Flush %d, want 2", v)
	}
}

func TestBatchSpanBoundsRecord(t *testing.T) {
	// A flush record can carry every node between the batch's first and
	// last staged node, foreign pending ones included, so Stage bounds
	// that span: with a foreign Update after every stage, a batch fills
	// at half the ops it holds alone, and no Flush or Update outgrows
	// the record bound (plog.ErrTooMany).
	_, in := newCounter(t, Config{NProcs: 2, LogMaxOps: 8, LocalViews: true})
	b, h1 := in.Handle(0).NewBatch(), in.Handle(1)
	const n = 40
	for staged := 0; staged < n; {
		_, _, err := b.Stage(objects.CounterInc)
		if errors.Is(err, ErrBatchFull) {
			if want := (b.Limit() + 1) / 2; b.Pending() != want {
				t.Fatalf("ErrBatchFull at %d staged ops, want %d (span limit %d, a foreign op after each)", b.Pending(), want, b.Limit())
			}
			if err := b.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Stage: %v", err)
		}
		staged++
		if _, _, err := h1.Update(objects.CounterInc); err != nil {
			t.Fatalf("foreign Update beside %d staged: %v", b.Pending(), err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v := h1.Read(objects.CounterGet); v != 2*n {
		t.Fatalf("read %d, want %d", v, 2*n)
	}
}

func TestBatchSpanRaceFlushesFirst(t *testing.T) {
	// Foreign inserts can land between Stage's span check and its own
	// insert. The staged ops are then committed first (one extra fence), so
	// the new op starts the next record and neither outgrows the bound.
	ctl := sched.NewController()
	pool := pmem.New(testPoolSize, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, LogMaxOps: 6, LocalViews: true, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	b := in.Handle(0).NewBatch()
	done0 := ctl.Spawn(0, func() {
		for i := 0; i < 2; i++ {
			if _, _, err := b.Stage(objects.CounterInc); err != nil {
				t.Errorf("Stage %d: %v", i, err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
	})
	ctl.RunUntil(0, sched.AtPoint(PointReturn))
	ctl.StepN(0, 2) // past PointReturn and the span check's tail read, parked at the insert
	done1 := ctl.Spawn(1, func() {
		for i := 0; i < 6; i++ {
			if _, _, err := in.Handle(1).Update(objects.CounterInc); err != nil {
				t.Errorf("Update: %v", err)
			}
		}
	})
	ctl.RunToCompletion(1)
	<-done1
	pool.ResetStats()
	ctl.RunToCompletion(0)
	<-done0
	if pf := pool.TotalStats().PersistentFences; pf != 2 {
		t.Fatalf("%d persistent fences for the raced stage and its flush, want 2", pf)
	}
	assertOnePendingPerPid(t, in)
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	rin, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 8 {
		t.Fatalf("recovered %d ops, want 8", rep.LastIdx)
	}
	if v := rin.Handle(0).Read(objects.CounterGet); v != 8 {
		t.Fatalf("post-recovery read %d, want 8", v)
	}
}

func TestBatchStageNeedsRoomForASplitRecord(t *testing.T) {
	// A span race commits the staged ops as a record of their own, so a
	// Stage after the first needs log room for two records. With one
	// slot free it refuses with ErrBatchFull before inserting; the Flush
	// then fills the slot, and the next batch fails to order at all.
	_, in := newCounter(t, Config{NProcs: 2, LogCapacity: 2, LogMaxOps: 6, LocalViews: true})
	h := in.Handle(0)
	if _, _, err := h.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	b := h.NewBatch()
	if _, _, err := b.Stage(objects.CounterInc); err != nil {
		t.Fatalf("first Stage with one slot free: %v", err)
	}
	tail := in.Trace().Tail(0)
	if _, _, err := b.Stage(objects.CounterInc); !errors.Is(err, ErrBatchFull) {
		t.Fatalf("second Stage with one slot free: %v, want ErrBatchFull", err)
	}
	if in.Trace().Tail(0) != tail {
		t.Fatal("the refused Stage inserted a node")
	}
	assertOnePendingPerPid(t, in)
	if err := b.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, err := b.Stage(objects.CounterInc); !errors.Is(err, plog.ErrFull) {
		t.Fatalf("Stage on the full log: %v, want plog.ErrFull", err)
	}
	if v := in.Handle(1).Read(objects.CounterGet); v != 2 {
		t.Fatalf("read %d, want 2", v)
	}
	assertOnePendingPerPid(t, in)
}

func TestFailedPersistHidesOpsAndFreesHandle(t *testing.T) {
	// An op is ordered only when the record it will be persisted in
	// fits, so a full log refuses the op before its insert: the handle
	// keeps failing with plog.ErrFull (never plog.ErrTooMany, as when
	// the refused ops stayed pending and piled into every later window),
	// the other handle keeps updating, and room made on the full log
	// lets its handle update again. No process ever holds two ordered,
	// unpersisted ops (Proposition 5.2's premise).
	legs := []struct {
		name   string
		update func(h *Handle, b *Batch) error
	}{
		{"Update", func(h *Handle, _ *Batch) error {
			_, _, err := h.Update(objects.CounterInc)
			return err
		}},
		{"Stage+Flush", func(_ *Handle, b *Batch) error {
			if _, _, err := b.Stage(objects.CounterInc); err != nil {
				return err
			}
			return b.Flush()
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			_, in := newCounter(t, Config{NProcs: 2, LogCapacity: 8, LocalViews: true})
			h0, h1 := in.Handle(0), in.Handle(1)
			b := h0.NewBatch()
			var ok uint64
			for {
				err := leg.update(h0, b)
				if errors.Is(err, plog.ErrFull) {
					break
				}
				if err != nil {
					t.Fatalf("update %d: %v", ok+1, err)
				}
				if ok++; ok > 64 {
					t.Fatal("the log never filled")
				}
			}
			reads := func(when string) {
				t.Helper()
				for pid := 0; pid < 2; pid++ {
					var got uint64
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s: p%d Read panicked: %v", when, pid, r)
							}
						}()
						got = in.Handle(pid).Read(objects.CounterGet)
					}()
					if got != ok {
						t.Fatalf("%s: p%d reads %d, want %d", when, pid, got, ok)
					}
				}
				assertOnePendingPerPid(t, in)
			}
			for round := 0; round < 4; round++ {
				if err := leg.update(h0, b); !errors.Is(err, plog.ErrFull) {
					t.Fatalf("round %d: update on the full log: %v, want plog.ErrFull", round, err)
				}
				if _, _, err := h1.Update(objects.CounterInc); err != nil {
					t.Fatalf("round %d: p1, whose log has room: %v", round, err)
				}
				ok++
				reads(fmt.Sprintf("round %d", round))
			}
			// Truncating p0's oldest record frees one slot (its op is
			// then lost to recovery; this test does not crash).
			l := in.Log(0)
			if err := l.Truncate(l.HeadSeq() + 1); err != nil {
				t.Fatal(err)
			}
			if err := leg.update(h0, b); err != nil {
				t.Fatalf("update after the truncation: %v", err)
			}
			ok++
			if err := leg.update(h0, b); !errors.Is(err, plog.ErrFull) {
				t.Fatalf("update on the refilled log: %v, want plog.ErrFull", err)
			}
			reads("after the truncation")
		})
	}
}

// assertOnePendingPerPid fails t if a process holds two or more
// unavailable (ordered, unpersisted) nodes in in's trace, walked from
// the tail back to its sentinel or newest base.
func assertOnePendingPerPid(t *testing.T, in *Instance) {
	t.Helper()
	pending := make(map[int]int)
	for _, n := range trace.Snapshot(in.Trace().Tail(0)) {
		if pid, _ := spec.SplitID(n.Op.ID); !n.Available {
			if pending[pid]++; pending[pid] > 1 {
				t.Fatalf("p%d holds %d unavailable nodes (newest at index %d)", pid, pending[pid], n.Idx)
			}
		}
	}
}

func TestBatchOfOneIsAnUpdate(t *testing.T) {
	// Update is the one-op case of the batch pipeline: twin instances
	// driven through the same schedule, one with Update and one with a
	// one-op Stage+Flush, return the same values and ids and leave the
	// same records behind at the same fence and flush counts. Stalled
	// processes give records helping windows of up to three ops, the
	// one-op inline budget spills them, and compaction cuts every third
	// update of a handle.
	cfg := Config{NProcs: 3, LogCapacity: 64, LogInlineOps: 1, LocalViews: true, CompactEvery: 3}
	type result struct{ ret, id uint64 }
	run := func(batch bool) (*pmem.Pool, *Instance, []result) {
		ctl := sched.NewController()
		c := cfg
		c.Gate = ctl
		pool := pmem.New(testPoolSize, ctl)
		in, err := New(pool, objects.CounterSpec{}, c)
		if err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		batches := make([]*Batch, c.NProcs)
		for pid := range batches {
			batches[pid] = in.Handle(pid).NewBatch()
		}
		var results []result
		op := func(pid int) <-chan any {
			ctl.Release(pid)
			return ctl.Spawn(pid, func() {
				var r result
				var err error
				if batch {
					if r.ret, r.id, err = batches[pid].Stage(objects.CounterInc); err == nil {
						err = batches[pid].Flush()
					}
				} else {
					r.ret, r.id, err = in.Handle(pid).Update(objects.CounterInc)
				}
				if err != nil {
					panic(err)
				}
				results = append(results, r)
			})
		}
		for round := 0; round < 24; round++ {
			var stalled []<-chan any
			var pids []int
			for _, pid := range []int{1, 2} {
				if round%(pid+1) == 0 {
					d := op(pid)
					if _, ok := ctl.RunUntil(pid, sched.AtPoint(PointOrdered)); !ok {
						t.Fatalf("round %d: p%d never ordered", round, pid)
					}
					stalled, pids = append(stalled, d), append(pids, pid)
				}
			}
			d := op(0)
			ctl.RunToCompletion(0)
			if r := <-d; r != nil {
				t.Fatalf("round %d: p0: %v", round, r)
			}
			for i, d := range stalled {
				ctl.RunToCompletion(pids[i])
				if r := <-d; r != nil {
					t.Fatalf("round %d: p%d: %v", round, pids[i], r)
				}
			}
		}
		return pool, in, results
	}
	upool, uin, ures := run(false)
	bpool, bin, bres := run(true)
	if !reflect.DeepEqual(ures, bres) {
		t.Fatalf("(ret, id) differ:\nUpdate      %v\nStage+Flush %v", ures, bres)
	}
	for pid := 0; pid < cfg.NProcs; pid++ {
		if u, b := uin.Log(pid).Records(), bin.Log(pid).Records(); !reflect.DeepEqual(u, b) {
			t.Fatalf("p%d records differ:\nUpdate      %v\nStage+Flush %v", pid, u, b)
		}
	}
	us, bs := upool.TotalStats(), bpool.TotalStats()
	if us.PersistentFences != bs.PersistentFences || us.Flushes != bs.Flushes {
		t.Fatalf("Update: %d fences, %d flushes; Stage+Flush: %d fences, %d flushes",
			us.PersistentFences, us.Flushes, bs.PersistentFences, bs.Flushes)
	}
	if cuts := uin.CompactionStats(); cuts.Bases+cuts.Deltas == 0 {
		t.Fatal("no compaction cut: the cadence leg is vacuous")
	}
}

func TestBatchRecordStopsAtForeignUpdate(t *testing.T) {
	// The flush record is the fuzzy window from the last staged node. A
	// foreign Update that completes between two stages persisted the
	// first staged op under its own fence, so the flush record holds
	// only the op staged above it.
	_, in := newCounter(t, Config{NProcs: 2, LogMaxOps: 8, LocalViews: true})
	b := in.Handle(0).NewBatch()
	if _, _, err := b.Stage(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Handle(1).Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	_, id, err := b.Stage(objects.CounterInc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	shape := func(pid int) string {
		recs := in.Log(pid).Records()
		r := recs[len(recs)-1]
		return fmt.Sprintf("exec %d, %d ops", r.ExecIdx, len(r.Ops))
	}
	if got, want := shape(1), "exec 2, 2 ops"; got != want {
		t.Fatalf("p1's record: %s, want %s (its op and the first staged one)", got, want)
	}
	if got, want := shape(0), "exec 3, 1 ops"; got != want {
		t.Fatalf("flush record: %s, want %s (only the op above p1's)", got, want)
	}
	if r := in.Log(0).Records(); r[len(r)-1].Ops[0].ID != id {
		t.Fatalf("flush record holds %#x, want the second staged op %#x", r[len(r)-1].Ops[0].ID, id)
	}
	if v := in.Handle(1).Read(objects.CounterGet); v != 3 {
		t.Fatalf("read %d, want 3", v)
	}
}
