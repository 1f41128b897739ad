package core

import (
	"errors"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// smashRecord durably destroys the n-th live record (1-based) of pid's
// log by garbling its checksummed kind word (the head tag stays intact,
// so the record probes as a bad same-seq record — media damage, not
// staleness), then drops the cache so the damage is what recovery sees.
func smashRecord(pool *pmem.Pool, in *Instance, pid int, n int) {
	l := in.Log(pid)
	w := l.LineAddr(l.Records()[n-1].Seq) + 2*pmem.WordSize
	pool.Store(pmem.RootSystemPID, w, 0xBAD0BAD0BAD0BAD0)
	pool.Persist(pmem.RootSystemPID, w, pmem.WordSize)
	pool.Crash(pmem.DropAll)
}

// TestSalvageCleanCrashIsHealthy pins that salvaging recovery of an
// ordinary crash (no media faults) classifies Healthy and recovers
// exactly what strict recovery would.
func TestSalvageCleanCrashIsHealthy(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for pid := 0; pid < 2; pid++ {
			if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if h := in2.Health(); h.Mode != ModeHealthy || h.Reason != nil {
		t.Fatalf("clean crash classified %v (%v)", h.Mode, h.Reason)
	}
	if rep.Salvage == nil || rep.Salvage.Mode != ModeHealthy || len(rep.Salvage.Evidence) != 0 {
		t.Fatalf("salvage report %+v, want healthy/no evidence", rep.Salvage)
	}
	if got, err := in2.Handle(0).TryRead(objects.CounterGet); err != nil || got != 10 {
		t.Fatalf("TryRead = %d, %v; want 10, nil", got, err)
	}
}

// TestQuarantineStrandedOps pins the core loss rule: with one process
// (no helping), a destroyed mid-log record leaves later persisted
// operations stranded beyond the gap — impossible crash-only, so the
// object is quarantined with ErrTornRecord, and every entry point
// refuses typed.
func TestQuarantineStrandedOps(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := in.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	smashRecord(pool, in, 0, 3)

	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatalf("salvaging recovery must not fail outright: %v", err)
	}
	h := in2.Health()
	if h.Mode != ModeQuarantined {
		t.Fatalf("mode %v, want quarantined", h.Mode)
	}
	if !errors.Is(h.Reason, ErrObjectQuarantined) || !errors.Is(h.Reason, ErrTornRecord) {
		t.Fatalf("reason %v lacks ErrObjectQuarantined/ErrTornRecord", h.Reason)
	}
	if rep.Salvage.Mode != ModeQuarantined || len(rep.Salvage.Evidence) == 0 {
		t.Fatalf("salvage report %+v", rep.Salvage)
	}
	if rep.LastIdx != 2 {
		t.Fatalf("salvaged prefix ends at %d, want 2", rep.LastIdx)
	}
	// Entry points refuse typed: Update and TryRead with the error,
	// Read by panicking with it.
	if _, _, err := in2.Handle(0).Update(objects.CounterInc); !errors.Is(err, ErrObjectQuarantined) {
		t.Fatalf("Update on quarantined object: %v", err)
	}
	if _, err := in2.Handle(0).TryRead(objects.CounterGet); !errors.Is(err, ErrObjectQuarantined) {
		t.Fatalf("TryRead on quarantined object: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			if e, ok := r.(error); !ok || !errors.Is(e, ErrObjectQuarantined) {
				t.Fatalf("Read panic = %v, want ErrObjectQuarantined", r)
			}
		}()
		in2.Handle(0).Read(objects.CounterGet)
	}()
}

// TestQuarantineBadHeader pins the unreadable-log rule and the evidence
// priority: a destroyed log header quarantines with ErrBadSlotHeader
// even though the missing operations also leave torn-record evidence.
func TestQuarantineBadHeader(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for pid := 0; pid < 2; pid++ {
			if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool.Crash(pmem.DropAll)
	base := in.Log(1).Base()
	pool.InjectFaults(pmem.FaultPlan{Faults: []pmem.Fault{
		{Class: pmem.FaultStuckLine, Line: base.Line(), Seed: 11},
	}})

	in2, _, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	// The evidence keeps its cause: both the class and plog's error.
	h := in2.Health()
	if h.Mode != ModeQuarantined || !errors.Is(h.Reason, ErrBadSlotHeader) || !errors.Is(h.Reason, plog.ErrCorrupt) {
		t.Fatalf("mode %v reason %v, want quarantined ErrBadSlotHeader wrapping plog.ErrCorrupt", h.Mode, h.Reason)
	}
	if h.LogsUnopened != 1 {
		t.Fatalf("LogsUnopened %d, want 1", h.LogsUnopened)
	}
	// Strict recovery of the same pool fails outright, with the same
	// evidence — the verdict salvage mode replaces with quarantine.
	pool.Crash(pmem.DropAll)
	if _, _, err := Recover(pool, objects.CounterSpec{}, Config{}); !errors.Is(err, ErrBadSlotHeader) || !errors.Is(err, plog.ErrCorrupt) {
		t.Fatalf("strict recovery of an unreadable log: err=%v, want ErrBadSlotHeader wrapping plog.ErrCorrupt", err)
	}
}

// TestQuarantineSnapshotCorrupt pins the truncation-coverage rule: a
// log whose headSeq says compaction truncated records must lead with
// the covering snapshot; destroying that snapshot is unrecoverable
// loss (ErrSnapshotCorrupt).
func TestQuarantineSnapshotCorrupt(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, LogCapacity: 64, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := in.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	l := in.Log(0)
	if l.HeadSeq() == 0 {
		t.Fatal("compaction never truncated; test is vacuous")
	}
	pool.Crash(pmem.DropAll)
	smashRecord(pool, in, 0, 1) // the covering snapshot

	in2, _, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if h := in2.Health(); h.Mode != ModeQuarantined || !errors.Is(h.Reason, ErrSnapshotCorrupt) {
		t.Fatalf("mode %v reason %v, want quarantined ErrSnapshotCorrupt", h.Mode, h.Reason)
	}
}

// TestDegradedHelpingBridge pins the Degraded classification: p1's own
// record of an operation is destroyed, but p0 helped-persisted the same
// operation (it was in p0's fuzzy window), so recovery reconstructs
// everything — damage with zero loss.
func TestDegradedHelpingBridge(t *testing.T) {
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, Gate: ctl})
	if err != nil {
		t.Fatal(err)
	}
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < 2; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				panic(err)
			}
		}
	})
	done0 := ctl.Spawn(0, func() {
		if _, _, err := in.Handle(0).Update(objects.CounterInc); err != nil {
			panic(err)
		}
	})
	// p1 orders its first op and stalls before persisting; p0's update
	// then helps-persist it; p1 resumes and also persists it itself,
	// plus a second op. The op now lives in both logs.
	if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
		t.Fatal("p1 finished early")
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	if v := <-done0; v != nil {
		t.Fatalf("p0: %v", v)
	}
	if v := <-done1; v != nil {
		t.Fatalf("p1: %v", v)
	}
	ctl.KillAll()
	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	// Destroy p1's own record of its first op: its second record
	// becomes an orphan (non-benign damage), but p0's helped copy
	// bridges the gap.
	smashRecord(pool, in, 1, 1)

	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	h := in2.Health()
	if h.Mode != ModeDegraded {
		t.Fatalf("mode %v (reason %v), want degraded", h.Mode, h.Reason)
	}
	if h.Orphans != 1 || h.BadSlots != 1 {
		t.Fatalf("orphans=%d badslots=%d, want 1/1", h.Orphans, h.BadSlots)
	}
	if len(rep.Ordered) != 3 {
		t.Fatalf("recovered %d ops, want all 3", len(rep.Ordered))
	}
	if got := in2.Handle(0).Read(objects.CounterGet); got != 3 {
		t.Fatalf("recovered counter %d, want 3", got)
	}
	// Strict recovery runs the same algorithm on the same walk: it reads
	// the orphan too (p1's second op is in no other log) and comes back
	// Degraded with all three ops.
	pool.Crash(pmem.DropAll)
	in3, rep3, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatalf("strict recovery of a bridged image: %v", err)
	}
	if in3.Health() != h || len(rep3.Ordered) != 3 {
		t.Fatalf("strict recovery: %d ops, health %+v; want 3 ops, health %+v", len(rep3.Ordered), in3.Health(), h)
	}
	// Degraded serves: updates and reads keep working.
	if _, _, err := in2.Handle(0).Update(objects.CounterInc); err != nil {
		t.Fatalf("degraded instance refused an update: %v", err)
	}
}

// TestRecreateAfterQuarantine pins the healthy -> quarantined ->
// Recreate -> healthy transition, with the salvaged prefix preserved
// across the recreation and the next crash.
func TestRecreateAfterQuarantine(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := in.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	smashRecord(pool, in, 0, 3) // salvaged prefix: ops 1-2

	in2, _, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if in2.Health().Mode != ModeQuarantined {
		t.Fatalf("mode %v, want quarantined", in2.Health().Mode)
	}
	if err := in2.Recreate(); err != nil {
		t.Fatalf("Recreate: %v", err)
	}
	if h := in2.Health(); h.Mode != ModeHealthy || h.Reason != nil {
		t.Fatalf("post-Recreate health %v (%v)", h.Mode, h.Reason)
	}
	if err := in2.Recreate(); err == nil {
		t.Fatal("Recreate on a healthy instance must refuse")
	}
	if got := in2.Handle(0).Read(objects.CounterGet); got != 2 {
		t.Fatalf("salvaged prefix lost across Recreate: counter %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := in2.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatalf("update after Recreate: %v", err)
		}
	}
	pool.Crash(pmem.DropAll)
	in3, rep, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if in3.Health().Mode != ModeHealthy {
		t.Fatalf("recovery after Recreate: %v", in3.Health().Mode)
	}
	if got := in3.Handle(0).Read(objects.CounterGet); got != 5 {
		t.Fatalf("counter %d after crash, want 5", got)
	}
	// Detectability: the salvaged ops are covered by the seed snapshot,
	// the new ones by their records; ids must not have been reused.
	for seq := uint64(1); seq <= 5; seq++ {
		if _, ok := rep.WasLinearized(spec.MakeID(0, seq)); !ok {
			t.Fatalf("op seq %d not detectable after Recreate+crash", seq)
		}
	}
}

// TestLogPressureTyped pins the valve's typed failures on a full log:
// with a local view the relief needs a chain body, and a pool that
// holds only the root table and the logs has no room for one, so the
// update reports ErrLogPressure; without a view there is no relief,
// and the update gets plog.ErrFull. Neither orders the op.
func TestLogPressureTyped(t *testing.T) {
	for _, tc := range []struct {
		views bool
		want  error
	}{{true, ErrLogPressure}, {false, plog.ErrFull}} {
		pool := pmem.New(pmem.RootSlots*pmem.WordSize+3*plog.RegionBytes(8, 3), nil)
		in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 3, LogCapacity: 8, LocalViews: tc.views})
		if err != nil {
			t.Fatal(err)
		}
		h := in.Handle(0)
		n := 0
		for ; n < 100; n++ {
			if _, _, err = h.Update(objects.CounterInc); err != nil {
				break
			}
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("views=%v: full log after %d updates returned %v, want %v", tc.views, n, err, tc.want)
		}
		if got := h.Read(objects.CounterGet); got != uint64(n) {
			t.Fatalf("views=%v: counter %d after %d updates and a refusal", tc.views, got, n)
		}
		if ps := in.Pressure(); ps.ValveFires != 0 || ps.Spills != 0 {
			t.Fatalf("views=%v: pressure %+v, want no relief counted", tc.views, ps)
		}
	}
}

// TestScrubOffHotPath pins the scrubber contract: Scrub finds latent
// damage the cached read path cannot see, while leaving every fence
// counter — the paper's cost accounting — untouched.
func TestScrubOffHotPath(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for pid := 0; pid < 2; pid++ {
			if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := [2]pmem.Stats{pool.StatsOf(0), pool.StatsOf(1)}
	if rep := in.Scrub(); rep.Faulty {
		t.Fatalf("clean instance scrubs faulty: %+v", rep)
	}
	// Latent fault: corrupt the durable image only; the cache keeps
	// masking it from the normal read path.
	addr := in.Log(1).LineAddr(in.Log(1).Records()[1].Seq)
	pool.InjectFaults(pmem.FaultPlan{Faults: []pmem.Fault{
		{Class: pmem.FaultTornLine, Line: addr.Line(), Seed: 21},
	}})
	if got := in.Handle(1).Read(objects.CounterGet); got != 10 {
		t.Fatalf("cached read path saw the latent fault: %d", got)
	}
	rep := in.Scrub()
	if !rep.Faulty {
		t.Fatalf("scrub missed the latent fault: %+v", rep)
	}
	if st := in.ScrubStats(); st.Runs != 2 || st.FaultyRuns != 1 {
		t.Fatalf("scrub stats %+v, want 2 runs / 1 faulty", st)
	}
	for pid := 0; pid < 2; pid++ {
		after := pool.StatsOf(pid)
		if after.PersistentFences != before[pid].PersistentFences || after.Fences != before[pid].Fences {
			t.Fatalf("scrub moved p%d fence counters: %+v -> %+v", pid, before[pid], after)
		}
	}
}

// TestRootBaseIsolation pins multi-instance pools: two objects at
// disjoint RootBase offsets recover independently, and quarantining
// damage to one leaves the other fully healthy.
func TestRootBaseIsolation(t *testing.T) {
	pool := pmem.New(1<<21, nil)
	mk := func(rb int) *Instance {
		in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, LogCapacity: 64, RootBase: rb})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(0), mk(32)
	for i := 0; i < 6; i++ {
		if _, _, err := a.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, err := b.Handle(0).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	smashRecord(pool, b, 0, 2) // quarantines b; a untouched

	a2, _, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true, RootBase: 32})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Health().Mode != ModeHealthy {
		t.Fatalf("instance A %v; damage leaked across RootBase", a2.Health().Mode)
	}
	if got := a2.Handle(0).Read(objects.CounterGet); got != 6 {
		t.Fatalf("instance A counter %d, want 6", got)
	}
	if b2.Health().Mode != ModeQuarantined {
		t.Fatalf("instance B %v, want quarantined", b2.Health().Mode)
	}
	// Overlapping root ranges are refused up front.
	if _, err := New(pool, objects.CounterSpec{}, Config{NProcs: MaxProcs, RootBase: pmem.RootSlots - 8}); err == nil {
		t.Fatal("overlapping RootBase accepted")
	}
}
