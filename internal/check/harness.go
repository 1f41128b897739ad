package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// HarnessConfig parameterizes a randomized crash-injection run (the E5
// experiment): n processes execute seeded op streams against an ONLL
// instance on a counting gate; at a chosen global step the gate kills
// every process, the pool crashes under a chosen oracle, recovery runs,
// and the combined history is validated against Definition 5.6.
type HarnessConfig struct {
	Spec       spec.Spec
	NProcs     int
	OpsPerProc int
	UpdatePct  int // 0..100
	Seed       int64
	CrashStep  uint64      // 0 = run to completion (no crash)
	Oracle     pmem.Oracle // survival of in-flight lines
	// Core is the construction's shape, used for both the pre-crash and
	// the recovered instance as given; RunCrash sets only NProcs, Gate
	// and LogCapacity (and Salvage on fault runs). Sweeps shrink
	// Core.LogInlineOps to force records through the overflow ring.
	Core core.Config
	// EvictionRate, if nonzero, enables spontaneous cache eviction at
	// roughly one write-back per EvictionRate stores (seeded by Seed):
	// data may become durable earlier than fenced, never later.
	EvictionRate uint64
	// FaultCount, if positive, injects that many seeded media faults
	// (pmem.PlanFaults, seeded by FaultSeed) into the durable image
	// after the crash and before recovery. The plan targets the
	// allocated span below the bump frontier, excluding the root table
	// (a real system keeps that tiny fixed region redundant; the
	// checksummed structures under test are the logs). Fault runs
	// recover in salvage mode, and RunCrash skips its built-in
	// durability check — the fault sweep applies its own three-outcome
	// oracle (fault_sweep_test.go).
	FaultCount int
	FaultSeed  uint64
}

// HarnessResult carries the artifacts of one run, so tests can make
// additional assertions.
type HarnessResult struct {
	History  []OpRecord
	Report   *core.Report
	Pool     *pmem.Pool
	Instance *core.Instance // post-recovery instance (nil if no crash)
	Steps    uint64
	// FaultPlan is the injected plan (empty unless FaultCount > 0).
	FaultPlan pmem.FaultPlan
	// RecoverErr is the recovery error when recovery itself failed (the
	// run error wraps it; kept here so sweeps can inspect it).
	RecoverErr error
}

// poolSizeFor sizes a pool generously for the run, honouring the
// configured inline budget (a single-tier budget needs far larger logs
// than the two-tier default).
func poolSizeFor(cfg HarnessConfig) (int, int) {
	logCap := cfg.OpsPerProc*2 + 64
	mult := 2
	if cfg.FaultCount > 0 {
		// A quarantined fault run may Recreate — a full second set of
		// logs from a bump allocator that never reclaims — on top of
		// possible ring growth under pressure.
		mult = 4
	}
	size := cfg.NProcs*plog.RegionBytesInline(logCap, cfg.NProcs, cfg.Core.LogInlineOps)*mult + (1 << 21)
	return size, logCap
}

// RunCrash executes the harness once and validates durable
// linearizability. It returns the result for further inspection; the
// error is non-nil on any safety violation.
func RunCrash(cfg HarnessConfig) (*HarnessResult, error) {
	if cfg.Oracle == nil {
		cfg.Oracle = pmem.DropAll
	}
	size, logCap := poolSizeFor(cfg)
	gate := sched.NewStepCounter(cfg.CrashStep, nil)
	pool := pmem.New(size, nil)
	if cfg.EvictionRate > 0 {
		pool.SetEviction(pmem.SeededEviction(uint64(cfg.Seed)+1, cfg.EvictionRate))
	}
	cc := cfg.Core
	cc.NProcs, cc.LogCapacity, cc.Gate = cfg.NProcs, logCap, gate
	in, err := core.New(pool, cfg.Spec, cc)
	if err != nil {
		return nil, err
	}
	// Arm the crash gate only now: CrashStep indexes steps of the
	// measured workload, not of setup. At high process counts setup
	// alone is tens of thousands of pool steps, and a kill inside
	// core.New would panic the harness caller instead of a worker.
	pool.SetGate(gate)
	hist := NewHistory()
	gen := workload.NewGenerator(cfg.Spec)

	done := make(chan struct{}, cfg.NProcs)
	for pid := 0; pid < cfg.NProcs; pid++ {
		go func(pid int) {
			defer func() {
				if r := recover(); r != nil && !sched.IsKilled(r) {
					panic(r)
				}
				done <- struct{}{}
			}()
			h := in.Handle(pid)
			steps := gen.Stream(cfg.Seed+int64(pid)*7919, cfg.OpsPerProc, cfg.UpdatePct)
			for _, st := range steps {
				runOp(hist, h, pid, st)
			}
		}(pid)
	}
	for i := 0; i < cfg.NProcs; i++ {
		<-done
	}

	res := &HarnessResult{History: hist.Ops(), Pool: pool, Steps: gate.Steps()}
	if cfg.CrashStep == 0 {
		return res, nil
	}
	pool.Crash(cfg.Oracle)
	// The crash gate stays latched (it kills every stepper); recovery
	// and the post-crash era run on a fresh, free-running pool gate —
	// the pre-crash machine's scheduler died with it.
	pool.SetGate(nil)
	if cfg.FaultCount > 0 {
		rootLines := uint64(pmem.RootSlots * pmem.WordSize / pmem.LineSize)
		res.FaultPlan = pmem.PlanFaults(cfg.FaultSeed, cfg.FaultCount, rootLines, pool.AllocatedLines())
		pool.InjectFaults(res.FaultPlan)
	}
	cc.Gate = nil
	if cfg.FaultCount > 0 {
		cc.Salvage = true
	}
	in2, rep, err := core.Recover(pool, cfg.Spec, cc)
	if err != nil {
		res.RecoverErr = err
		return res, fmt.Errorf("recovery failed: %w", err)
	}
	res.Report, res.Instance = rep, in2
	if cfg.FaultCount > 0 {
		// Faulty recoveries classify three ways (Healthy / Degraded /
		// Quarantined); the built-in pass/fail oracle below does not
		// apply. The fault sweep runs its own check.
		return res, nil
	}
	rec := MakeRecovered(rep.Ordered)
	rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
	if err := CheckDurable(cfg.Spec, res.History, rec); err != nil {
		return res, err
	}
	return res, nil
}

// runOp executes one step, recording invocation and (if the process
// survives) response. A kill panic propagates after the invocation was
// recorded, leaving the op pending — exactly what a crash does.
func runOp(hist *History, h *core.Handle, pid int, st workload.Step) {
	var token int
	if st.IsUpdate {
		token = hist.Invoke(pid, st.Code, st.Args, true, h.NextOpID())
		ret, _, err := h.Update(st.Code, st.Args...)
		if err != nil {
			panic(fmt.Sprintf("update failed: %v", err))
		}
		hist.Return(token, ret)
	} else {
		token = hist.Invoke(pid, st.Code, st.Args, false, 0)
		ret := h.Read(st.Code, st.Args...)
		hist.Return(token, ret)
	}
}

// RunLive executes the harness without a crash and returns the recorded
// history (for linearizability checking of small runs).
func RunLive(cfg HarnessConfig) (*HarnessResult, error) {
	cfg.CrashStep = 0
	return RunCrash(cfg)
}
