package plog

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// buildLog returns a log with n one-op (two-line) records, all durable
// and the cache dropped (as after a crash), and the records' seqs.
func buildLog(t *testing.T, capacity, n int) (*pmem.Pool, *Log, []uint64) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 1; i <= n; i++ {
		seq, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	pool.Crash(pmem.DropAll)
	return pool, l, seqs
}

// smash destroys the record at seq by overwriting its kind word
// durably (the head tag is left intact, so the record probes as a
// same-seq bad record, not stale).
func smash(pool *pmem.Pool, l *Log, seq uint64) {
	corrupt(pool, l.LineAddr(seq)+2*pmem.WordSize, 0xBAD0BAD0BAD0BAD0)
	pool.Crash(pmem.DropAll)
}

// TestSalvageScanOrphans pins orphan harvesting: a destroyed mid-log
// record ends the live prefix, and Open's walk follows it to the last
// slot, collecting the records after it as checksummed orphans.
func TestSalvageScanOrphans(t *testing.T) {
	pool, l, seqs := buildLog(t, 16, 8)
	smash(pool, l, seqs[2])
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
	if len(w.BadSeqs) != 1 || w.BadSeqs[0] != seqs[2] {
		t.Fatalf("bad seqs %v, want [%d]", w.BadSeqs, seqs[2])
	}
	if _, st, _ := l2.probe(seqs[2], l2.cachedReader()); st != SlotBad {
		t.Fatalf("record 3 probes %v, want %v", st, SlotBad)
	}
	if w.LastValid != seqs[7] {
		t.Fatalf("last valid %d, want %d", w.LastValid, seqs[7])
	}
	if !w.Damaged() || w.BenignTear() || w.TailTorn() {
		t.Fatalf("classification wrong: damaged=%v benign=%v tail=%v", w.Damaged(), w.BenignTear(), w.TailTorn())
	}
	for i, rec := range w.Orphans {
		if rec.Seq != seqs[3+i] {
			t.Fatalf("orphan %d has seq %d", i, rec.Seq)
		}
	}
}

// TestSalvageBenignTear pins that a single invalid record at the append
// frontier classifies as an ordinary torn append, not damage.
func TestSalvageBenignTear(t *testing.T) {
	pool, l, seqs := buildLog(t, 16, 8)
	smash(pool, l, seqs[7])
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
// read differently. A destroyed head tag makes a mid-log record read
// like the end of the log: Open's walk stops there without probing the
// lines beyond it, and Resume reads on to the last line, where the
// records after it turn up as orphans and the destroyed record's
// continuation line is neither damage nor a head. Resuming a walk that
// already reached the last line reads nothing.
func TestWalkStopsAtStaleEnd(t *testing.T) {
	pool, l, seqs := buildLog(t, 16, 8)
	corrupt(pool, l.LineAddr(seqs[2]), 0xDEAD)
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

// TestSalvageTornOverflowClassified pins a torn continuation line: a
// record whose head line verifies but whose later line still holds a
// line from an earlier pass over the region probes as a same-seq bad
// record, and the record after it is an orphan.
func TestSalvageTornOverflowClassified(t *testing.T) {
	pool, l := newLog(t, 16, 12)
	if _, err := l.Append(opsOf(2, 1), 1); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(opsOf(8, 2), 2) // seven lines
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(2, 3), 3); err != nil {
		t.Fatal(err)
	}
	corrupt(pool, l.LineAddr(seq+5), (seq+5-uint64(l.lines))|tagCont)
	pool.Crash(pmem.DropAll)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if _, st, _ := l2.probe(seq, l2.cachedReader()); st != SlotBad {
		t.Fatalf("record 2 probes %v, want %v", st, SlotBad)
	}
	if len(w.Live) != 1 || len(w.Orphans) != 1 || len(w.BadSeqs) != 1 || w.BadSeqs[0] != seq {
		t.Fatalf("live=%d orphans=%d bad=%v", len(w.Live), len(w.Orphans), w.BadSeqs)
	}
}

// TestSalvageContinuationLooksLikeHead pins the tags against a payload
// that imitates a head: each record's continuation line carries, as its
// first payload word, the line's own seq (the op id below), which is
// where an untagged layout would keep a head's seq. With one record's
// head tag destroyed, Resume must find every record beyond it as an
// orphan and read no continuation line as a head or as damage.
func TestSalvageContinuationLooksLikeHead(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 1; i <= 8; i++ {
		seq := l.NextSeq()
		o := op(uint64(i), seq+1) // the id is image word 7: line seq+1's first
		if _, err := l.Append([]spec.Op{o}, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if w := pool.Load(0, l.LineAddr(seq+1)+pmem.WordSize); w != seq+1 {
			t.Fatalf("record %d: continuation payload word %d, want %d", i, w, seq+1)
		}
		seqs = append(seqs, seq)
	}
	corrupt(pool, l.LineAddr(seqs[2]), 0)
	pool.Crash(pmem.DropAll)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	l2.Resume(w)
	if len(w.Live) != 2 || len(w.Orphans) != 5 || len(w.BadSeqs) != 0 {
		t.Fatalf("resumed walk: live=%d orphans=%d bad=%v, want 2, 5 and none",
			len(w.Live), len(w.Orphans), w.BadSeqs)
	}
	for _, seq := range seqs {
		if _, st, _ := l2.probe(seq+1, l2.cachedReader()); st != SlotStale {
			t.Fatalf("continuation line %d probes %v, want %v", seq+1, st, SlotStale)
		}
	}
}

// TestSpillCounter pins Spills: it counts the shortages the owner
// relieved (AddSpills), and a refused append counts none.
func TestSpillCounter(t *testing.T) {
	_, l := newLog(t, 8, 12)
	var full int
	for i := 1; i <= 8; i++ {
		if _, err := l.Append(opsOf(12, i), uint64(i)); err == ErrFull {
			full++
		}
	}
	if full == 0 {
		t.Fatal("workload never filled the log; test is vacuous")
	}
	if l.Spills() != 0 {
		t.Fatalf("Spills()=%d after refused appends, want 0", l.Spills())
	}
	l.AddSpills(2)
	l.AddSpills(1)
	if l.Spills() != 3 {
		t.Fatalf("Spills()=%d, want 3", l.Spills())
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
	var seqs []uint64
	for i := 1; i <= 6; i++ {
		seq, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if res := l.Scrub(); res.Faulty() {
		t.Fatalf("clean log scrubs faulty: %+v", res)
	}
	// Stuck-at fault on record 3's continuation line (payload and
	// checksum; the head tag survives, so the record probes as a bad
	// same-seq record, not stale). The cache copy is resident, so the
	// cached scan still sees a healthy log.
	pool.InjectFaults(pmem.FaultPlan{Faults: []pmem.Fault{
		{Class: pmem.FaultStuckLine, Line: l.LineAddr(seqs[2] + 1).Line(), Seed: 9},
	}})
	if got := len(l.Records()); got != 6 {
		t.Fatalf("cached scan saw the latent fault early (%d records)", got)
	}
	res := l.Scrub()
	if !res.Faulty() {
		t.Fatalf("scrub missed the latent fault: %+v", res)
	}
	if len(res.BadSlots) != 1 || res.BadSlots[0] != seqs[2] {
		t.Fatalf("scrub flagged %v, want [%d]", res.BadSlots, seqs[2])
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
// scrub of a log holding every record kind — one-line and multi-line
// ops records, a full snapshot, a chain base and its deltas — takes no gate
// step and leaves every statistic unchanged, because it reads the
// durable image through pmem.DurableRange only.
func TestScrubIsInvisibleToAccounting(t *testing.T) {
	gate := sched.NewStepCounter(0, nil)
	pool := pmem.New(1<<20, gate)
	l, err := Create(pool, 0, 32, 8)
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
