package core

import (
	"errors"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
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
	// A flush record carries every node between the batch's first and
	// last staged node, foreign ones included, so Stage bounds that span:
	// with a foreign Update after every stage, a batch fills at half the
	// ops it holds alone, and no Flush or Update outgrows the record
	// bound (plog.ErrTooMany).
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
	// insert. The staged ops are then fenced first (one extra fence), so
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
