// Package ablation runs the E13 experiments: it removes, one at a
// time, the two design decisions the paper derives in Section 3.1 —
// helping (persisting the fuzzy window) and persist-before-linearize —
// and constructs the executions in which each removal provably violates
// durable linearizability, caught by the internal/check validator.
//
// These are the paper's impossibility arguments made executable:
//
//   - No helping: a process that ordered its op but stalls before
//     persisting leaves a hole; later processes persist only their own
//     ops; at a crash, everything after the hole is stranded (recovery
//     cannot linearize past a gap), erasing COMPLETED operations.
//
//   - Linearize before persist: a reader observes the op before it is
//     durable and returns (an external action); the crash then erases
//     the op, leaving the system in a state that contradicts what the
//     reader exposed — exactly the first contradiction of Section 3.1.
package ablation

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Outcome reports one ablation execution.
type Outcome struct {
	Name string
	// Violation is the durability violation the checker found; nil
	// means the ablated variant survived this execution (it should
	// never be nil when the ablation is enabled).
	Violation error
}

const poolSize = 1 << 24

// NoHelping constructs the gap execution against a counter with
// helping disabled and returns the (expected) durability violation.
// Recovery sees the gap by itself: the completed operation persisted
// beyond it is stranded, which Proposition 5.10 rules out, so strict
// recovery refuses the image with core.ErrTornRecord. A salvaging one
// quarantines it and hands back the prefix before the gap, which the
// checker then holds against the history.
func NoHelping() (*Outcome, error) {
	pool, hist, err := noHelpingImage()
	if err != nil {
		return nil, err
	}
	_, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{Salvage: true})
	if err != nil {
		return nil, err
	}
	rec := check.MakeRecovered(rep.Ordered)
	rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
	return &Outcome{
		Name:      "no-helping",
		Violation: check.CheckDurable(objects.CounterSpec{}, hist.Ops(), rec),
	}, nil
}

// noHelpingImage runs the gap execution and returns the crashed pool
// and the history.
func noHelpingImage() (*pmem.Pool, *check.History, error) {
	ctl := sched.NewController()
	pool := pmem.New(poolSize, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: 2, Gate: ctl, UnsafeNoHelping: true,
	})
	if err != nil {
		return nil, nil, err
	}
	hist := check.NewHistory()

	// p0 orders its op (index 1) and stalls before persisting.
	h0 := in.Handle(0)
	tok0 := hist.Invoke(0, objects.CounterInc, nil, true, h0.NextOpID())
	ctl.Spawn(0, func() {
		ret, _, _ := h0.Update(objects.CounterInc)
		hist.Return(tok0, ret)
	})
	if _, ok := ctl.RunUntil(0, sched.AtPoint(core.PointOrdered)); !ok {
		return nil, nil, fmt.Errorf("ablation: p0 finished early")
	}

	// p1 runs a full update (index 2): with helping it would persist
	// p0's op too; ablated, it persists only its own.
	h1 := in.Handle(1)
	tok1 := hist.Invoke(1, objects.CounterInc, nil, true, h1.NextOpID())
	done1 := ctl.Spawn(1, func() {
		ret, _, _ := h1.Update(objects.CounterInc)
		hist.Return(tok1, ret)
	})
	ctl.RunToCompletion(1)
	<-done1 // p1's op COMPLETED: it must survive any crash.

	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	pool.SetGate(nil)
	return pool, hist, nil
}

// LinearizeFirst constructs the exposed-then-erased execution against
// a counter with the available flag set before the persist stage.
func LinearizeFirst() (*Outcome, error) {
	ctl := sched.NewController()
	pool := pmem.New(poolSize, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: 2, Gate: ctl, UnsafeLinearizeFirst: true,
	})
	if err != nil {
		return nil, err
	}
	hist := check.NewHistory()

	// p0's update linearizes (flag set) and stalls before its fence.
	h0 := in.Handle(0)
	tok0 := hist.Invoke(0, objects.CounterInc, nil, true, h0.NextOpID())
	ctl.Spawn(0, func() {
		ret, _, _ := h0.Update(objects.CounterInc)
		hist.Return(tok0, ret)
	})
	if _, ok := ctl.RunUntil(0, sched.AtPoint("pmem.pfence")); !ok {
		return nil, fmt.Errorf("ablation: p0 finished early")
	}

	// A reader on p1 now observes the un-persisted op and RETURNS —
	// the external action of Section 3.1's first contradiction.
	h1 := in.Handle(1)
	tokR := hist.Invoke(1, objects.CounterGet, nil, false, 0)
	doneR := ctl.Spawn(1, func() {
		hist.Return(tokR, h1.Read(objects.CounterGet))
	})
	ctl.RunToCompletion(1)
	<-doneR

	// Crash before p0's fence: the op the reader exposed is erased.
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	pool.SetGate(nil)
	_, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
	if err != nil {
		return nil, err
	}
	rec := check.MakeRecovered(rep.Ordered)
	rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
	return &Outcome{
		Name:      "linearize-first",
		Violation: check.CheckDurable(objects.CounterSpec{}, hist.Ops(), rec),
	}, nil
}

// Control runs the no-helping scenario with the REAL construction
// (helping on) and must find no violation — demonstrating that the
// checker's complaints above are caused by the ablations alone.
func Control() (*Outcome, error) {
	ctl := sched.NewController()
	pool := pmem.New(poolSize, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, Gate: ctl})
	if err != nil {
		return nil, err
	}
	hist := check.NewHistory()
	h0 := in.Handle(0)
	tok0 := hist.Invoke(0, objects.CounterInc, nil, true, h0.NextOpID())
	ctl.Spawn(0, func() {
		ret, _, _ := h0.Update(objects.CounterInc)
		hist.Return(tok0, ret)
	})
	if _, ok := ctl.RunUntil(0, sched.AtPoint(core.PointOrdered)); !ok {
		return nil, fmt.Errorf("ablation: p0 finished early")
	}
	h1 := in.Handle(1)
	tok1 := hist.Invoke(1, objects.CounterInc, nil, true, h1.NextOpID())
	done1 := ctl.Spawn(1, func() {
		ret, _, _ := h1.Update(objects.CounterInc)
		hist.Return(tok1, ret)
	})
	ctl.RunToCompletion(1)
	<-done1
	ctl.KillAll()
	pool.Crash(pmem.DropAll)
	pool.SetGate(nil)
	_, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
	if err != nil {
		return nil, err
	}
	rec := check.MakeRecovered(rep.Ordered)
	rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
	return &Outcome{
		Name:      "control (real construction)",
		Violation: check.CheckDurable(objects.CounterSpec{}, hist.Ops(), rec),
	}, nil
}

var _ = spec.Op{} // spec is part of the package's public vocabulary
