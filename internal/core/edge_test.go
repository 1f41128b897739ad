package core

import (
	"errors"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

func TestReadOnFreshObject(t *testing.T) {
	for _, lv := range []bool{false, true} {
		_, in := newCounter(t, Config{NProcs: 1, LocalViews: lv})
		if v := in.Handle(0).Read(objects.CounterGet); v != 0 {
			t.Fatalf("fresh counter read %d", v)
		}
	}
}

func TestReadDirectlyAtCompactionBase(t *testing.T) {
	// After compaction, the latest available node can BE the base (no
	// newer updates); reads must serve the snapshot state directly.
	pool := pmem.New(testPoolSize, nil)
	in, err := New(pool, objects.MapSpec{}, Config{NProcs: 1, CompactEvery: 3, LogCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := uint64(1); i <= 3; i++ { // exactly one compaction epoch
		mustUpdate(t, h, objects.MapPut, i, i*10)
	}
	// A FRESH handle (empty local view) reads now: its walk lands on
	// the base node installed by the cut.
	h2 := in.Handle(0)
	if v := h2.Read(objects.MapGet, 2); v != 20 {
		t.Fatalf("read at base: %d", v)
	}
}

func TestMaxProcsBoundary(t *testing.T) {
	pool := pmem.New(1<<26, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: MaxProcs, LogCapacity: 8})
	if err != nil {
		t.Fatalf("NProcs=MaxProcs rejected: %v", err)
	}
	for pid := 0; pid < MaxProcs; pid++ {
		if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if v := in.Handle(MaxProcs - 1).Read(objects.CounterGet); v != MaxProcs {
		t.Fatalf("value %d", v)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Recovering twice from the same durable state (no ops in between)
	// must yield identical reports.
	pool, in := newCounter(t, Config{NProcs: 2})
	for i := 0; i < 7; i++ {
		mustUpdate(t, in.Handle(i%2), objects.CounterInc)
	}
	pool.Crash(pmem.DropAll)
	_, rep1, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.LastIdx != rep2.LastIdx || rep1.BaseIdx != rep2.BaseIdx ||
		len(rep1.Linearized) != len(rep2.Linearized) {
		t.Fatalf("recovery not idempotent: %+v vs %+v", rep1, rep2)
	}
	for id, idx := range rep1.Linearized {
		if rep2.Linearized[id] != idx {
			t.Fatalf("op %#x at %d vs %d", id, idx, rep2.Linearized[id])
		}
	}
}

func TestWasLinearizedEdgeCases(t *testing.T) {
	rep := &Report{Linearized: map[uint64]uint64{}, CoveredSeq: map[int]uint64{}}
	if _, ok := rep.WasLinearized(0); ok {
		t.Fatal("reserved id 0 reported linearized")
	}
	rep.CoveredSeq[2] = 5
	if _, ok := rep.WasLinearized(spec.MakeID(2, 5)); !ok {
		t.Fatal("covered op not reported")
	}
	if _, ok := rep.WasLinearized(spec.MakeID(2, 6)); ok {
		t.Fatal("beyond-coverage op reported")
	}
	if _, ok := rep.WasLinearized(spec.MakeID(3, 1)); ok {
		t.Fatal("uncovered pid reported")
	}
}

func TestCompactionContinuesAfterRecovery(t *testing.T) {
	// Era 1 compacts; era 2 (post-recovery) must keep compacting and
	// keep the log bounded — the recovered handles carry valid views
	// and covered-sequence vectors.
	pool := pmem.New(testPoolSize, nil)
	cfg := Config{NProcs: 1, CompactEvery: 8, LogCapacity: 40}
	in, err := New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustUpdate(t, in.Handle(0), objects.CounterInc)
	}
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // far beyond LogCapacity without truncation
		if _, _, err := in2.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatalf("era-2 update %d: %v", i, err)
		}
	}
	if v := in2.Handle(0).Read(objects.CounterGet); v != 300 {
		t.Fatalf("value %d, want 300", v)
	}
	pool.Crash(pmem.DropAll)
	in3, rep, err := Recover(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseIdx == 0 {
		t.Fatal("era-2 compaction left no snapshot")
	}
	if v := in3.Handle(0).Read(objects.CounterGet); v != 300 {
		t.Fatalf("third-era value %d", v)
	}
}

func TestUpdateArgsOverflowIgnored(t *testing.T) {
	// More args than the record holds: extra args are dropped by the
	// copy (documented fixed-width ops); the first three are preserved.
	_, in := newCounter(t, Config{NProcs: 1})
	ret, _, err := in.Handle(0).Update(objects.CounterAdd, 5, 99, 99, 99, 99)
	if err != nil || ret != 5 {
		t.Fatalf("ret=%d err=%v", ret, err)
	}
}

func TestFreshHandleReadAfterOthersUpdated(t *testing.T) {
	// A handle that never updated must see others' effects (its local
	// view starts empty and replays on demand).
	_, in := newCounter(t, Config{NProcs: 3, LocalViews: true})
	for i := 0; i < 25; i++ {
		mustUpdate(t, in.Handle(0), objects.CounterInc)
	}
	if v := in.Handle(2).Read(objects.CounterGet); v != 25 {
		t.Fatalf("fresh handle read %d", v)
	}
}

// TestRootOverlapRejected is the regression test for the RootBase
// partition check (pre-PR 8, two instances with overlapping root
// ranges were accepted and silently clobbered each other's root
// slots): a partial overlap must fail with ErrRootOverlap at create
// time, disjoint ranges must tile fine, and re-claiming the IDENTICAL
// range must stay allowed — that is recovery of the same instance on
// the same in-process pool, which crash tests do routinely.
func TestRootOverlapRejected(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	cfg := Config{NProcs: 2, LogCapacity: 1 << 10}
	if _, err := New(pool, objects.CounterSpec{}, cfg); err != nil {
		t.Fatal(err)
	}
	over := cfg
	over.RootBase = RootSpan(2) - 1 // last slot of the first claim
	if _, err := New(pool, objects.CounterSpec{}, over); !errors.Is(err, ErrRootOverlap) {
		t.Fatalf("overlapping RootBase accepted (err=%v), want ErrRootOverlap", err)
	}
	next := cfg
	next.RootBase = RootSpan(2)
	if _, err := New(pool, objects.CounterSpec{}, next); err != nil {
		t.Fatalf("disjoint RootBase rejected: %v", err)
	}
	// Identical re-claim: recovering instance 0 on the same pool object.
	if _, _, err := Recover(pool, objects.CounterSpec{}, Config{LogCapacity: 1 << 10}); err != nil {
		t.Fatalf("same-range recovery rejected: %v", err)
	}
}
