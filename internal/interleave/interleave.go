// Package interleave explores fine-grained, fully deterministic
// interleavings of ONLL operations. The free-running stress tests and
// the step-counting crash harness (internal/check) cover coarse
// schedules; this package drives every shared-memory step of every
// process individually through the controller, so that a seeded
// scheduler can produce — and exactly reproduce — pathological
// interleavings (a process preempted inside its tail CAS, between
// persist and linearize, mid-fence, etc.), optionally crashing at any
// chosen global step.
//
// Every run is checked: live histories against the linearizability
// search, crashed histories against the Definition 5.6 checker.
package interleave

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Config parameterizes a scheduled exploration run.
type Config struct {
	Spec       spec.Spec
	NProcs     int
	OpsPerProc int
	UpdatePct  int
	// SchedSeed seeds the step-granting order (the interleaving).
	SchedSeed int64
	// WorkSeed seeds the operation streams.
	WorkSeed int64
	// CrashAtStep, if positive, kills all processes after that many
	// granted steps and crashes the pool under Oracle.
	CrashAtStep int
	Oracle      pmem.Oracle
	// Core is the construction's shape, passed to core.New and
	// core.Recover as given; Run sets only NProcs, Gate and LogCapacity.
	Core core.Config
}

// Result carries what a run produced.
type Result struct {
	History []check.OpRecord
	Report  *core.Report // nil if no crash
	Steps   int          // steps granted before completion/crash
}

// Run executes one fully deterministic scheduled run and validates it.
func Run(cfg Config) (*Result, error) {
	if cfg.Oracle == nil {
		cfg.Oracle = pmem.DropAll
	}
	ctl := sched.NewController()
	pool := pmem.New(1<<24, ctl)
	cc := cfg.Core
	cc.NProcs, cc.Gate, cc.LogCapacity = cfg.NProcs, ctl, cfg.OpsPerProc*2+64
	in, err := core.New(pool, cfg.Spec, cc)
	if err != nil {
		return nil, err
	}
	hist := check.NewHistory()
	gen := workload.NewGenerator(cfg.Spec)

	outcomes := make([]<-chan any, cfg.NProcs)
	for pid := 0; pid < cfg.NProcs; pid++ {
		pid := pid
		steps := gen.Stream(cfg.WorkSeed+int64(pid)*104729, cfg.OpsPerProc, cfg.UpdatePct)
		outcomes[pid] = ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			for _, st := range steps {
				runOp(ctl, hist, h, pid, st)
			}
		})
	}

	// The deterministic scheduler: grant one step at a time to a
	// pseudo-randomly chosen live process.
	rng := rand.New(rand.NewSource(cfg.SchedSeed))
	granted := 0
	live := make([]int, 0, cfg.NProcs)
	for {
		live = live[:0]
		for pid := 0; pid < cfg.NProcs; pid++ {
			if !ctl.Done(pid) {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			break
		}
		if cfg.CrashAtStep > 0 && granted >= cfg.CrashAtStep {
			break
		}
		pid := live[rng.Intn(len(live))]
		if ctl.StepN(pid, 1) == 1 {
			granted++
		}
	}
	res := &Result{Steps: granted}

	if cfg.CrashAtStep > 0 && granted >= cfg.CrashAtStep {
		ctl.KillAll()
		for _, ch := range outcomes {
			<-ch
		}
		res.History = hist.Ops()
		pool.Crash(cfg.Oracle)
		pool.SetGate(nil)
		cc.Gate = nil // the pre-crash machine's scheduler died with it
		_, rep, err := core.Recover(pool, cfg.Spec, cc)
		if err != nil {
			return res, fmt.Errorf("recovery: %w", err)
		}
		res.Report = rep
		rec := check.MakeRecovered(rep.Ordered)
		rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
		if err := check.CheckDurable(cfg.Spec, res.History, rec); err != nil {
			return res, fmt.Errorf("schedSeed=%d workSeed=%d crash@%d: %w",
				cfg.SchedSeed, cfg.WorkSeed, cfg.CrashAtStep, err)
		}
		return res, nil
	}

	// Clean completion: drain and (for small histories) verify full
	// linearizability.
	for _, ch := range outcomes {
		if r := <-ch; r != nil {
			return nil, fmt.Errorf("process failed: %v", r)
		}
	}
	res.History = hist.Ops()
	if len(res.History) <= 16 {
		if !check.Linearizable(cfg.Spec, res.History) {
			return res, fmt.Errorf("schedSeed=%d workSeed=%d: history not linearizable",
				cfg.SchedSeed, cfg.WorkSeed)
		}
	}
	return res, nil
}

// runOp executes one step. Invocation and response recording are
// themselves gate points, so the logical clock order of the history is
// fully determined by the schedule — identical seeds replay identical
// histories, event for event.
func runOp(ctl *sched.Controller, hist *check.History, h *core.Handle, pid int, st workload.Step) {
	ctl.Step(pid, "op.invoke")
	if st.IsUpdate {
		token := hist.Invoke(pid, st.Code, st.Args, true, h.NextOpID())
		ret, _, err := h.Update(st.Code, st.Args...)
		if err != nil {
			panic(fmt.Sprintf("update failed: %v", err))
		}
		ctl.Step(pid, "op.record-return")
		hist.Return(token, ret)
		return
	}
	token := hist.Invoke(pid, st.Code, st.Args, false, 0)
	ret := h.Read(st.Code, st.Args...)
	ctl.Step(pid, "op.record-return")
	hist.Return(token, ret)
}

// Sweep runs Run across schedule seeds and, for each, across a set of
// crash points derived from the clean run's length. It returns the
// number of validated runs.
func Sweep(base Config, schedSeeds int, crashFracs []int) (int, error) {
	runs := 0
	for ss := int64(0); ss < int64(schedSeeds); ss++ {
		cfg := base
		cfg.SchedSeed = base.SchedSeed + ss
		cfg.CrashAtStep = 0
		clean, err := Run(cfg)
		if err != nil {
			return runs, err
		}
		runs++
		for _, frac := range crashFracs {
			c := cfg
			c.CrashAtStep = clean.Steps * frac / 100
			if c.CrashAtStep == 0 {
				c.CrashAtStep = 1
			}
			if _, err := Run(c); err != nil {
				return runs, err
			}
			runs++
		}
	}
	return runs, nil
}
