package plog

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// buildLog returns a single-tier log with n one-op records, all durable
// and the cache dropped (as after a crash).
func buildLog(t *testing.T, capacity, n int) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	return pool, l
}

// smash destroys the record at seq by overwriting its checksum word's
// neighbourhood durably (the seq word is left intact, so the slot
// probes as a same-seq bad record, not stale).
func smash(pool *pmem.Pool, l *Log, seq uint64) {
	addr := l.slotAddr(seq)
	corrupt(pool, addr+pmem.Addr(2*pmem.WordSize), 0xBAD0BAD0BAD0BAD0)
	pool.Crash(pmem.DropAll)
}

// TestSalvageScanOrphans pins orphan harvesting: a destroyed mid-log
// record ends the live prefix, and Open's walk follows it to the last
// slot, collecting the records after it as checksummed orphans.
func TestSalvageScanOrphans(t *testing.T) {
	pool, l := buildLog(t, 16, 8)
	smash(pool, l, 3)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatalf("Open after mid-log damage: %v", err)
	}
	if got := len(l2.Records()); got != 2 {
		t.Fatalf("Records returned %d records, want the prefix of 2", got)
	}
	if len(w.Live) != 2 || len(w.Orphans) != 5 {
		t.Fatalf("walk live=%d orphans=%d, want 2/5", len(w.Live), len(w.Orphans))
	}
	if len(w.BadSeqs) != 1 || w.BadSeqs[0] != 3 {
		t.Fatalf("bad seqs %v, want [3]", w.BadSeqs)
	}
	if _, st := l2.probeSlot(3, l2.cachedReader()); st != SlotBad {
		t.Fatalf("slot 3 probes %v, want %v", st, SlotBad)
	}
	if w.LastValid != 8 {
		t.Fatalf("last valid %d, want 8", w.LastValid)
	}
	if !w.Damaged() || w.BenignTear() || w.TailTorn() {
		t.Fatalf("classification wrong: damaged=%v benign=%v tail=%v", w.Damaged(), w.BenignTear(), w.TailTorn())
	}
	for i, rec := range w.Orphans {
		if rec.Seq != uint64(4+i) {
			t.Fatalf("orphan %d has seq %d", i, rec.Seq)
		}
	}
}

// TestSalvageBenignTear pins that a single invalid record at the append
// frontier classifies as an ordinary torn append, not damage.
func TestSalvageBenignTear(t *testing.T) {
	pool, l := buildLog(t, 16, 8)
	smash(pool, l, 8)
	_, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Live) != 7 || len(w.Orphans) != 0 {
		t.Fatalf("live=%d orphans=%d, want 7/0", len(w.Live), len(w.Orphans))
	}
	if !w.BenignTear() || !w.TailTorn() || w.Damaged() {
		t.Fatalf("classification wrong: benign=%v tail=%v damaged=%v", w.BenignTear(), w.TailTorn(), w.Damaged())
	}
}

// TestWalkStopsAtStaleEnd pins the one place the two recovery modes
// read differently. A destroyed sequence word makes a mid-log slot read
// like the end of the log: Open's walk stops there without probing the
// slots beyond it, and Resume reads on to the last slot, where the
// records after it turn up as orphans. Resuming a walk that already
// reached the last slot reads nothing.
func TestWalkStopsAtStaleEnd(t *testing.T) {
	pool, l := buildLog(t, 16, 8)
	corrupt(pool, l.slotAddr(3), 0xDEAD)
	pool.Crash(pmem.DropAll)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Live) != 2 || len(w.Orphans) != 0 || len(w.BadSeqs) != 0 || w.Damaged() {
		t.Fatalf("Open's walk: live=%d orphans=%d bad=%v, want the prefix of 2 and nothing else",
			len(w.Live), len(w.Orphans), w.BadSeqs)
	}
	l2.Resume(w)
	if len(w.Live) != 2 || len(w.Orphans) != 5 || len(w.BadSeqs) != 0 || !w.Damaged() {
		t.Fatalf("resumed walk: live=%d orphans=%d bad=%v, want 2 live and 5 orphans",
			len(w.Live), len(w.Orphans), w.BadSeqs)
	}
	before := pool.TotalStats().Loads
	l2.Resume(w)
	if loads := pool.TotalStats().Loads - before; loads != 0 || len(w.Orphans) != 5 {
		t.Fatalf("resuming a finished walk read %d words and found %d orphans", loads, len(w.Orphans))
	}
}

// TestSalvageTornOverflowClassified pins the SlotBadOvf status: a
// record whose inline half verifies but whose ring chunk was damaged.
func TestSalvageTornOverflowClassified(t *testing.T) {
	pool, l := newTieredLog(t, 16, 12, 4)
	if _, err := l.Append(opsOf(2, 1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(8, 2), 2); err != nil { // spills
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(2, 3), 3); err != nil {
		t.Fatal(err)
	}
	pool.Crash(pmem.DropAll)
	recs := l.Records()
	off, _, ok := recs[1].OverflowSpan()
	if !ok {
		t.Fatal("record 2 did not spill")
	}
	ovfBase, _ := l.OverflowRegion()
	corrupt(pool, ovfBase+pmem.Addr(off*pmem.WordSize), 0xFEEDFACE)
	pool.Crash(pmem.DropAll)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if _, st := l2.probeSlot(2, l2.cachedReader()); st != SlotBadOvf {
		t.Fatalf("slot 2 probes %v, want %v", st, SlotBadOvf)
	}
	if len(w.Live) != 1 || len(w.Orphans) != 1 || len(w.BadSeqs) != 1 {
		t.Fatalf("live=%d orphans=%d bad=%v", len(w.Live), len(w.Orphans), w.BadSeqs)
	}
}

// TestCreateRingExplicitBudget pins the adaptive-sizing contract:
// explicit ring budgets stick (line-aligned), survive reopen, and are
// floored at the formula's worst-case fraction.
func TestCreateRingExplicitBudget(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	floor := ovfRegionWords(32, 12, 4)
	l, err := CreateInlineRing(pool, 0, 32, 12, 4, 4*floor)
	if err != nil {
		t.Fatal(err)
	}
	if l.RingWords() != 4*floor {
		t.Fatalf("ring %d words, want %d", l.RingWords(), 4*floor)
	}
	// Traffic + reopen: the enlarged ring must round-trip through the
	// durable header.
	for i := 1; i <= 6; i++ {
		if _, err := l.Append(opsOf(8, i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatalf("reopen of grown-ring log: %v", err)
	}
	if l2.RingWords() != 4*floor {
		t.Fatalf("reopened ring %d words, want %d", l2.RingWords(), 4*floor)
	}
	if got := len(l2.Records()); got != 6 {
		t.Fatalf("recovered %d records, want 6", got)
	}
	// Below-floor request is raised to the floor.
	l3, err := CreateInlineRing(pool, 0, 32, 12, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l3.RingWords() != floor {
		t.Fatalf("tiny ring request gave %d words, want floor %d", l3.RingWords(), floor)
	}
	// Single-tier layouts have no ring regardless of the request.
	l4, err := CreateInlineRing(pool, 0, 8, 4, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if l4.RingWords() != 0 {
		t.Fatalf("single-tier log grew a ring of %d words", l4.RingWords())
	}
}

// TestSpillCounter pins that refused appends are counted (the adaptive
// growth trigger).
func TestSpillCounter(t *testing.T) {
	_, l := newTieredLog(t, 128, 12, 4) // ring: 128*40/8 = 640 words
	var errs int
	for i := 1; i <= 64; i++ {
		if _, err := l.Append(opsOf(12, i), uint64(i)); err == ErrOvfFull {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("workload never exhausted the ring; test is vacuous")
	}
	if l.Spills() != errs {
		t.Fatalf("Spills()=%d, want %d", l.Spills(), errs)
	}
}

// TestScrubDetectsLatentFault pins the scrubber's reason to exist: a
// media fault on a fenced record that the volatile cache still masks
// is invisible to the normal (cached) read path but caught by Scrub
// before any recovery needs the data.
func TestScrubDetectsLatentFault(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if res := l.Scrub(); res.Faulty() {
		t.Fatalf("clean log scrubs faulty: %+v", res)
	}
	// Stuck-at fault on record 3's second line (payload + checksum; the
	// seq word on the first line survives, so the slot probes as a bad
	// same-seq record, not stale). The cache copy is resident, so the
	// cached scan still sees a healthy log.
	pool.InjectFaults(pmem.FaultPlan{Faults: []pmem.Fault{
		{Class: pmem.FaultStuckLine, Line: (l.slotAddr(3) + pmem.LineSize).Line(), Seed: 9},
	}})
	if got := len(l.Records()); got != 6 {
		t.Fatalf("cached scan saw the latent fault early (%d records)", got)
	}
	res := l.Scrub()
	if !res.Faulty() {
		t.Fatalf("scrub missed the latent fault: %+v", res)
	}
	if len(res.BadSlots) != 1 || res.BadSlots[0] != 3 {
		t.Fatalf("scrub flagged %v, want [3]", res.BadSlots)
	}
	if res.Orphans != 3 {
		t.Fatalf("scrub found %d orphans, want 3", res.Orphans)
	}
}

// TestScrubHeaderFault pins header coverage: damage to the header line
// itself is reported via HeaderOK.
func TestScrubHeaderFault(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.InjectFaults(pmem.FaultPlan{Faults: []pmem.Fault{
		{Class: pmem.FaultBitFlip, Line: l.Base().Line(), Seed: 5},
	}})
	res := l.Scrub()
	if res.HeaderOK || !res.Faulty() {
		t.Fatalf("scrub missed the header fault: %+v", res)
	}
}

// TestScrubIsInvisibleToAccounting pins the scrubber's contract: a
// scrub of a log holding every record kind — inline and overflowing ops
// records, a full snapshot, a chain base and its deltas — takes no gate
// step and leaves every statistic unchanged, because it reads the
// durable image through pmem.DurableRange only.
func TestScrubIsInvisibleToAccounting(t *testing.T) {
	gate := sched.NewStepCounter(0, nil)
	pool := pmem.New(1<<20, gate)
	l, err := CreateInline(pool, 0, 32, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx := uint64(0)
	for _, n := range []int{1, 2, 5, 8} {
		ops := make([]spec.Op, n)
		for k := range ops {
			ops[k] = op(uint64(k+1), idx+1)
		}
		idx++
		if _, err := l.Append(ops, idx); err != nil {
			t.Fatal(err)
		}
	}
	idx++
	if _, err := l.AppendSnapshot([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, idx); err != nil {
		t.Fatal(err)
	}
	buildChain(t, l, idx+1, idx+2, idx+3)
	steps, stats := gate.Steps(), pool.TotalStats()
	if res := l.Scrub(); res.Faulty() || res.LiveOK != 8 {
		t.Fatalf("scrub of a clean log: %+v", res)
	}
	if d := gate.Steps() - steps; d != 0 {
		t.Fatalf("scrub took %d gate steps", d)
	}
	if s := pool.TotalStats(); s != stats {
		t.Fatalf("scrub moved the statistics: %v -> %v", stats, s)
	}
}
