package check

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestFaultInjectionSweep is the randomized crash-point × fault-plan
// sweep: each iteration crashes a mixed workload at a random global
// step under a random survival oracle, injects a seeded plan of media
// faults (torn lines, bit flips, stuck-at lines) into the durable
// image, recovers in salvage mode, and checks the three-outcome
// contract:
//
//   - Healthy / Degraded: the recovered state must pass CheckDurable,
//     after the one concession the fault model forces — completed
//     updates whose records sat at a log's append frontier may have
//     been destroyed indistinguishably from a torn in-flight append,
//     so such ops are demoted to pending IF AND ONLY IF they form a
//     per-process suffix (pruneLostTail). Loss anywhere else is a
//     silent-wrong-value failure.
//   - Quarantined: Update and TryRead must refuse with
//     ErrObjectQuarantined, the health reason must carry a taxonomy
//     error naming the evidence, and Recreate must return the object
//     to service on the salvaged prefix.
//
// In every outcome recovery must not panic or invent operations, and
// the scrubber must agree with salvage (damage bridged in degraded
// mode is still latent on media) while spending zero fences.
//
// -short trims the sweep to 16 processes (the bounded CI job);
// ONLL_FAULT_SWEEP_ITERS overrides the per-count iteration count.
func TestFaultInjectionSweep(t *testing.T) {
	procsList := []int{16, 32}
	iters := 3
	if testing.Short() {
		procsList = []int{16}
	}
	if s := os.Getenv("ONLL_FAULT_SWEEP_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad ONLL_FAULT_SWEEP_ITERS %q", s)
		}
		iters = n
	}
	specs := []spec.Spec{objects.MapSpec{}, objects.QueueSpec{}}
	for _, nprocs := range procsList {
		nprocs := nprocs
		t.Run(fmt.Sprintf("procs=%d", nprocs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nprocs)*30011 + 17))
			for it := 0; it < iters; it++ {
				sp := specs[it%len(specs)]
				runFaultIteration(t, sp, nprocs, it, rng)
			}
		})
	}
}

// runFaultIteration executes one crash+fault+recover cycle and applies
// the three-outcome oracle.
func runFaultIteration(t *testing.T, sp spec.Spec, nprocs, it int, rng *rand.Rand) {
	t.Helper()
	base := HarnessConfig{
		Spec: sp, NProcs: nprocs, OpsPerProc: 12, UpdatePct: 60,
		Seed: int64(it)*101 + int64(nprocs),
	}
	if it%2 == 0 {
		// Spill-heavy shape: every helped record overflows, compaction
		// churns the ring, and faults land on chunk and snapshot lines
		// too, not just inline slots.
		base.Core.LogInlineOps = 1
		base.Core.LocalViews = true
		base.Core.CompactEvery = 8
	}
	if it%3 == 0 {
		base.Core.WaitFree = true
	}
	// Alternate compaction schemes across the compacting legs, so
	// faults land on chain bodies and back-references too and salvage
	// composes with unresolvable chains, not just broken snapshots.
	base.Core.DeltaSnapshots = it%4 == 0
	probe, err := RunLive(base)
	if err != nil {
		t.Fatalf("p%d i%d: live probe: %v", nprocs, it, err)
	}
	cfg := base
	cfg.CrashStep = 1 + uint64(rng.Int63n(int64(probe.Steps)))
	cfg.Oracle = pmem.SeededOracle(rng.Uint64(), uint64(rng.Intn(4)), 3)
	cfg.FaultCount = 1 + rng.Intn(3)
	cfg.FaultSeed = rng.Uint64()

	res, err := RunCrash(cfg)
	if err != nil {
		// Salvaging recovery never hard-fails on log damage (the root
		// table is outside the fault plan's range); an error here is a
		// harness bug or a panic that escaped a worker.
		t.Fatalf("p%d i%d (crash=%d faults=%v): %v",
			nprocs, it, cfg.CrashStep, res.FaultPlan.Faults, err)
	}
	rep, in := res.Report, res.Instance
	health := in.Health()
	t.Logf("p%d i%d: crash=%d faults=%d -> %v (bad=%d orphans=%d unopened=%d)",
		nprocs, it, cfg.CrashStep, len(res.FaultPlan.Faults), health.Mode,
		health.BadSlots, health.Orphans, health.LogsUnopened)

	// No invention, in every mode: each recovered op was really invoked.
	known := make(map[uint64]bool, len(res.History))
	for i := range res.History {
		if res.History[i].OpID != 0 {
			known[res.History[i].OpID] = true
		}
	}
	for _, op := range rep.Ordered {
		if op.ID != 0 && !known[op.ID] {
			t.Errorf("p%d i%d: recovered op %#x was never invoked", nprocs, it, op.ID)
		}
	}

	// The scrubber sees what salvage saw — before any new append can
	// overwrite the damage — and spends nothing on the paper's meters.
	before := res.Pool.TotalStats()
	scrub := in.Scrub()
	after := res.Pool.TotalStats()
	if after.Fences != before.Fences || after.PersistentFences != before.PersistentFences {
		t.Errorf("p%d i%d: scrub issued fences (%+v -> %+v)", nprocs, it, before, after)
	}

	switch health.Mode {
	case core.ModeQuarantined:
		checkQuarantined(t, sp, res, nprocs, it)
	case core.ModeHealthy, core.ModeDegraded:
		if health.Mode == core.ModeDegraded && !scrub.Faulty {
			t.Errorf("p%d i%d: degraded instance but scrub found no latent damage", nprocs, it)
		}
		if health.Mode == core.ModeHealthy && scrub.Faulty {
			t.Errorf("p%d i%d: healthy instance but scrub flags damage: %+v", nprocs, it, scrub.PerPid)
		}
		pruned, dropped, perr := pruneLostTail(res.History, rep)
		if perr != nil {
			t.Errorf("p%d i%d (%s, crash=%d faults=%v): %v",
				nprocs, it, health.Mode, cfg.CrashStep, res.FaultPlan.Faults, perr)
			return
		}
		if dropped > 0 {
			t.Logf("p%d i%d (%s): %d completed update(s) torn off the frontier, demoted to pending",
				nprocs, it, health.Mode, dropped)
		}
		rec := MakeRecovered(rep.Ordered)
		rec.BaseState, rec.CoveredSeq = rep.BaseState, rep.CoveredSeq
		if err := CheckDurable(sp, pruned, rec); err != nil {
			t.Errorf("p%d i%d (%s, crash=%d faults=%v): %v",
				nprocs, it, health.Mode, cfg.CrashStep, res.FaultPlan.Faults, err)
		}
		// The survivor serves: reads answer and updates land.
		h := in.Handle(0)
		if _, err := h.TryRead(readProbe(sp)); err != nil {
			t.Errorf("p%d i%d (%s): TryRead after recovery: %v", nprocs, it, health.Mode, err)
		}
		st := workload.NewGenerator(sp).Stream(int64(it)+1, 1, 100)[0]
		if _, _, err := h.Update(st.Code, st.Args...); err != nil {
			t.Errorf("p%d i%d (%s): update after recovery: %v", nprocs, it, health.Mode, err)
		}
	default:
		t.Errorf("p%d i%d: unknown health mode %v", nprocs, it, health.Mode)
	}
}

// checkQuarantined asserts the quarantine contract: typed refusal with
// taxonomy evidence, then Recreate restores service.
func checkQuarantined(t *testing.T, sp spec.Spec, res *HarnessResult, nprocs, it int) {
	t.Helper()
	in := res.Instance
	reason := in.Health().Reason
	if !errors.Is(reason, core.ErrObjectQuarantined) {
		t.Errorf("p%d i%d: quarantined without ErrObjectQuarantined: %v", nprocs, it, reason)
	}
	if !errors.Is(reason, core.ErrTornRecord) &&
		!errors.Is(reason, core.ErrBadSlotHeader) &&
		!errors.Is(reason, core.ErrSnapshotCorrupt) {
		t.Errorf("p%d i%d: quarantine reason lacks taxonomy evidence: %v", nprocs, it, reason)
	}
	h := in.Handle(0)
	st := workload.NewGenerator(sp).Stream(int64(it)+1, 1, 100)[0]
	if _, _, err := h.Update(st.Code, st.Args...); !errors.Is(err, core.ErrObjectQuarantined) {
		t.Errorf("p%d i%d: quarantined Update returned %v, want ErrObjectQuarantined", nprocs, it, err)
	}
	if _, err := h.TryRead(readProbe(sp)); !errors.Is(err, core.ErrObjectQuarantined) {
		t.Errorf("p%d i%d: quarantined TryRead returned %v, want ErrObjectQuarantined", nprocs, it, err)
	}
	if err := in.Recreate(); err != nil {
		t.Errorf("p%d i%d: Recreate: %v", nprocs, it, err)
		return
	}
	if m := in.Health().Mode; m != core.ModeHealthy {
		t.Errorf("p%d i%d: health after Recreate = %v, want healthy", nprocs, it, m)
	}
	h = in.Handle(0)
	if _, _, err := h.Update(st.Code, st.Args...); err != nil {
		t.Errorf("p%d i%d: update after Recreate: %v", nprocs, it, err)
	}
	if _, err := h.TryRead(readProbe(sp)); err != nil {
		t.Errorf("p%d i%d: TryRead after Recreate: %v", nprocs, it, err)
	}
}

// TestPruneLostTail pins the concession's boundary deterministically
// (random sweeps hit the frontier-destruction case too rarely to rely
// on): a lost tail demotes and censors late readers; a lost middle is
// silent loss and must be rejected.
func TestPruneLostTail(t *testing.T) {
	mk := func(pid int, seq uint64, inv, ret uint64) OpRecord {
		return OpRecord{OpID: spec.MakeID(pid, seq), PID: pid, IsUpdate: true, Inv: inv, Ret: ret}
	}
	read := func(pid int, inv, ret uint64) OpRecord {
		return OpRecord{PID: pid, Inv: inv, Ret: ret}
	}
	rep := &core.Report{Linearized: map[uint64]uint64{
		spec.MakeID(0, 1): 1,
		spec.MakeID(0, 2): 2,
	}}
	hist := []OpRecord{
		mk(0, 1, 1, 2),
		mk(0, 2, 3, 4),
		mk(0, 3, 7, 9), // completed, unrecovered, at the tail: prunable
		read(1, 1, 5),  // responded before the lost op's invocation: kept
		read(1, 8, 10), // responded after: censored
		read(1, 11, 0), // pending: kept
	}
	out, dropped, err := pruneLostTail(hist, rep)
	if err != nil || dropped != 1 {
		t.Fatalf("prune: dropped=%d err=%v", dropped, err)
	}
	if len(out) != 5 {
		t.Fatalf("pruned history has %d records, want 5 (late read censored)", len(out))
	}
	for i := range out {
		o := &out[i]
		switch {
		case o.OpID == spec.MakeID(0, 3):
			if o.Completed() {
				t.Errorf("lost tail op still completed after pruning")
			}
		case !o.IsUpdate && o.Ret == 10:
			t.Errorf("read that responded after the lost op survived pruning")
		}
	}

	// Lost seq 2 with seq 3 recovered: a hole, not a tail.
	rep2 := &core.Report{Linearized: map[uint64]uint64{
		spec.MakeID(0, 1): 1,
		spec.MakeID(0, 3): 3,
	}}
	if _, _, err := pruneLostTail(hist[:3], rep2); err == nil {
		t.Fatalf("mid-sequence loss accepted as a torn tail")
	}
}

// pruneLostTail reconciles the fault model's one irreducible ambiguity
// with CheckDurable. A fault that destroys the record (or just the
// sequence word) at a log's append frontier is indistinguishable from
// an append the crash interrupted: salvage classifies it a benign tear
// and comes back Healthy, yet the op inside may have completed before
// the crash. Such ops are demoted to pending — the checker then treats
// them like any in-flight op the crash dropped.
//
// The concession is sound only at the frontier, and the prefix walk
// guarantees lost-but-completed ops can sit nowhere else in a
// Healthy/Degraded recovery (anything stranded beyond a gap is
// quarantine evidence). So the demotion is gated: the lost ops must
// form a suffix of their process's completed updates, or an error
// reports silent mid-sequence loss. Completed reads that responded
// after the earliest lost op was invoked could have observed a now-
// lost effect and become unverifiable; they are dropped from the
// checked history. Reads that responded before it are kept in full.
func pruneLostTail(hist []OpRecord, rep *core.Report) ([]OpRecord, int, error) {
	maxRec := map[int]uint64{} // pid -> highest recovered completed seq
	var lost []int
	for i := range hist {
		o := &hist[i]
		if !o.IsUpdate || !o.Completed() || o.OpID == 0 {
			continue
		}
		if _, ok := rep.WasLinearized(o.OpID); ok {
			if pid, seq := spec.SplitID(o.OpID); seq > maxRec[pid] {
				maxRec[pid] = seq
			}
			continue
		}
		lost = append(lost, i)
	}
	if len(lost) == 0 {
		return hist, 0, nil
	}
	minInv := ^uint64(0)
	isLost := make(map[int]bool, len(lost))
	for _, i := range lost {
		o := &hist[i]
		pid, seq := spec.SplitID(o.OpID)
		if seq <= maxRec[pid] {
			return nil, 0, fmt.Errorf(
				"completed update %#x (p%d seq %d) lost mid-sequence (p%d recovered through seq %d): silent loss, not a torn tail",
				o.OpID, pid, seq, pid, maxRec[pid])
		}
		if o.Inv < minInv {
			minInv = o.Inv
		}
		isLost[i] = true
	}
	out := make([]OpRecord, 0, len(hist))
	for i := range hist {
		o := hist[i]
		switch {
		case isLost[i]:
			o.Ret = 0 // a torn frontier append is an op that never returned
		case !o.IsUpdate && o.Completed() && o.Ret >= minInv:
			continue // may have observed a lost effect; unverifiable
		}
		out = append(out, o)
	}
	return out, len(lost), nil
}
