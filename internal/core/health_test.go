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

// smashRecord durably destroys record seq of pid's log by garbling a
// checksummed mid-record word (the stored seq word stays intact, so the
// slot probes as a bad same-seq record — media damage, not staleness),
// then drops the cache so the damage is what recovery sees.
func smashRecord(pool *pmem.Pool, in *Instance, pid int, seq uint64) {
	addr, _ := in.Log(pid).SlotRegion(seq)
	w := addr + pmem.Addr(2*pmem.WordSize)
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
	smashRecord(pool, in, 0, l.HeadSeq()+1) // the covering snapshot

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

// TestRingGrowthUnderPressure pins the valve's growth rung: without
// local views there is no snapshot to compact from, so sustained
// overflow pressure must be absorbed by growing the ring (adaptive
// sizing), with the full history surviving migration and a crash.
func TestRingGrowthUnderPressure(t *testing.T) {
	const rounds = 20
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldRing := in.Log(0).RingWords()
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				panic(err)
			}
		}
	})
	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				panic(err)
			}
		}
	})
	for i := 0; i < rounds; i++ {
		// p1 stalls between order and persist, so p0's record always
		// carries p1's pending op — past the inline budget of 1, into
		// the ring, every round.
		if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
			t.Fatalf("round %d: p1 finished early", i)
		}
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p0 finished early", i)
		}
		if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p1 could not finish", i)
		}
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	if v := <-done0; v != nil {
		t.Fatalf("p0 failed: %v", v)
	}
	if v := <-done1; v != nil {
		t.Fatalf("p1 failed: %v", v)
	}
	ctl.KillAll()

	ps := in.Pressure()
	if ps.RingGrows == 0 {
		t.Fatalf("ring never grew (valve fires %d, spills %d); test is vacuous", ps.ValveFires, ps.Spills)
	}
	if in.Log(0).RingWords() <= oldRing {
		t.Fatalf("ring %d words after growth, want > %d", in.Log(0).RingWords(), oldRing)
	}
	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.CounterSpec{}, Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if in2.Health().Mode != ModeHealthy {
		t.Fatalf("health %v after growth+crash", in2.Health().Mode)
	}
	if got := in2.Handle(0).Read(objects.CounterGet); got != 2*rounds {
		t.Fatalf("recovered counter %d, want %d", got, 2*rounds)
	}
	for pid := 0; pid < 2; pid++ {
		for seq := uint64(1); seq <= rounds; seq++ {
			if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
				t.Fatalf("p%d op %d vanished across ring growth", pid, seq)
			}
		}
	}
}

// TestLogPressureTyped pins the ladder's typed failure: when every rung
// fails (no local view to compact, pool too small to grow the ring),
// Update reports ErrLogPressure instead of a bare ErrOvfFull.
func TestLogPressureTyped(t *testing.T) {
	ctl := sched.NewController()
	// The pool fits the root table and the three initial logs exactly:
	// the growth rung's allocation must fail.
	region := plog.RegionBytesInline(64, 3, 1)
	pool := pmem.New(pmem.RootSlots*pmem.WordSize+3*region, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var pressureErr error
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				return
			}
		}
	})
	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				pressureErr = err
				return
			}
		}
	})
	// Each round p1 stalls a fresh op between order and persist, so
	// every p0 record spills its helped tail — until the ring is
	// exhausted with no relief available (the loop ends early once p0's
	// update errors out and its goroutine exits).
	for i := 0; i < rounds; i++ {
		if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
			break
		}
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			break
		}
		if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
			break
		}
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	ctl.KillAll()
	<-done0
	<-done1
	if !errors.Is(pressureErr, ErrLogPressure) {
		t.Fatalf("exhausted ladder returned %v, want ErrLogPressure", pressureErr)
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
	addr, _ := in.Log(1).SlotRegion(2)
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
