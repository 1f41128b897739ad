package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// TestBatchBesideConcurrentUpdater runs Update on a second handle while
// a batch is staged, deterministically. p0 stages k ops; p2 reads; p1
// runs its updates to completion, its fuzzy window walking through p0's
// staged nodes; p0 stages more; p2 reads again; then the machine dies
// at a seeded gate step of p0's remaining run (the stages' tail and the
// flush). The history must be durably linearizable: p1's completed ops
// may not be stranded above p0's unpersisted nodes, and neither read
// may have seen an op the crash erases. Two cadences: compaction off,
// where only p1's helping persists p0's staged ops, and CompactEvery 1,
// where p1 also cuts while p0's ops are staged.
func TestBatchBesideConcurrentUpdater(t *testing.T) {
	for _, every := range []int{0, 1} {
		for seed := int64(0); seed < 32; seed++ {
			t.Run(fmt.Sprintf("every%d/seed%d", every, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				runBatchBesideUpdater(t, every, 1+rng.Intn(4), rng.Intn(3), 1+rng.Intn(3), rng.Intn(80))
			})
		}
	}
}

// runBatchBesideUpdater is one scenario: k ops staged before p1's
// updates, more after them, crash after crashAt of p0's gate steps.
func runBatchBesideUpdater(t *testing.T, every, k, more, updates, crashAt int) {
	ctl := sched.NewController()
	pool := pmem.New(1<<21, ctl)
	sp := objects.CounterSpec{}
	in, err := core.New(pool, sp, core.Config{
		NProcs: 3, LogCapacity: 64, LogMaxOps: 16, LocalViews: true, CompactEvery: every, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := check.NewHistory()
	h0, h1, h2 := in.Handle(0), in.Handle(1), in.Handle(2)

	done0 := ctl.Spawn(0, func() {
		b := h0.NewBatch()
		var toks []int
		var rets []uint64
		for i := 0; i < k+more; i++ {
			tok := hist.Invoke(0, objects.CounterInc, nil, true, h0.NextOpID())
			ret, _, err := b.Stage(objects.CounterInc)
			if err != nil {
				panic(fmt.Sprintf("Stage: %v", err))
			}
			toks, rets = append(toks, tok), append(rets, ret)
		}
		if err := b.Flush(); err != nil {
			panic(fmt.Sprintf("Flush: %v", err))
		}
		for i, tok := range toks {
			hist.Return(tok, rets[i])
		}
	})
	read := func() {
		tok := hist.Invoke(2, objects.CounterGet, nil, false, 0)
		hist.Return(tok, h2.Read(objects.CounterGet))
	}
	stages := func(n int) { // leaves p0 parked at its next gate step
		for i := 0; i < n; i++ {
			if _, ok := ctl.RunUntil(0, sched.AtPoint(core.PointReturn)); !ok {
				t.Fatal("p0 finished before staging all its ops")
			}
			ctl.StepN(0, 1)
		}
	}

	stages(k)
	read()
	done1 := ctl.Spawn(1, func() {
		for i := 0; i < updates; i++ {
			tok := hist.Invoke(1, objects.CounterInc, nil, true, h1.NextOpID())
			ret, _, err := h1.Update(objects.CounterInc)
			if err != nil {
				panic(fmt.Sprintf("Update: %v", err))
			}
			hist.Return(tok, ret)
		}
	})
	ctl.RunToCompletion(1)
	if r := <-done1; r != nil {
		t.Fatalf("p1: %v", r)
	}
	stages(more)
	read()
	ctl.StepN(0, crashAt)
	ctl.KillAll()
	if r := <-done0; r != nil && r != sched.ErrKilled {
		t.Fatalf("p0: %v", r)
	}

	pool.Crash(pmem.DropAll)
	_, rep, err := core.Recover(pool, sp, core.Config{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rec := check.MakeRecovered(rep.Ordered)
	rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
	if err := check.CheckDurable(sp, hist.Ops(), rec); err != nil {
		t.Fatal(err)
	}
}
