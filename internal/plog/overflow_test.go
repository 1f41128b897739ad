package plog

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Tests of records that overflow their head line into continuation
// lines. The contract under test is that the split is invisible to
// readers (Records always returns complete op batches), costs the same
// single persistent fence wherever the record lands, and degrades under
// crashes and corruption exactly like a one-line record: a record with
// a torn continuation line is treated as never appended, and validity
// stays prefix-closed.

func opsOf(n, salt int) []spec.Op {
	ops := make([]spec.Op, n)
	for i := range ops {
		ops[i] = op(uint64(salt*100+i+1), uint64(salt*1000+i+1))
	}
	return ops
}

func payloadOf(ops []spec.Op) []uint64 {
	var p []uint64
	for _, o := range ops {
		p = o.Encode(p)
	}
	return p
}

// TestOverflowAppendRoundTrip appends records at every op count from 1
// to maxOps and requires each to cost exactly one persistent fence, to
// take ceil((3+5n+1)/7) lines, and to decode back complete.
func TestOverflowAppendRoundTrip(t *testing.T) {
	pool, l := newLog(t, 64, 12)
	var want [][]spec.Op
	for n := 1; n <= 12; n++ {
		ops := opsOf(n, n)
		pool.ResetStats()
		before := l.NextSeq()
		if _, err := l.Append(ops, uint64(n)); err != nil {
			t.Fatalf("append %d ops: %v", n, err)
		}
		st := pool.StatsOf(0)
		if st.PersistentFences != 1 {
			t.Fatalf("append of %d ops used %d persistent fences, want 1", n, st.PersistentFences)
		}
		if lines := int(l.NextSeq() - before); lines != (3+5*n+1+6)/7 {
			t.Fatalf("append of %d ops took %d lines, want %d", n, lines, (3+5*n+1+6)/7)
		}
		want = append(want, ops)
	}
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	recs := l2.Records()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if len(rec.Ops) != len(want[i]) {
			t.Fatalf("record %d: %d ops, want %d", i, len(rec.Ops), len(want[i]))
		}
		for k := range want[i] {
			if rec.Ops[k] != want[i][k] {
				t.Fatalf("record %d op %d: %v want %v", i, k, rec.Ops[k], want[i][k])
			}
		}
	}
}

// TestTornOverflowFallsBackToLastValidRecord corrupts one durable
// payload word of a middle record's continuation line, leaving its tag
// intact, so only the record checksum can see the damage: recovery
// must surface exactly the records before it (prefix-closed fallback),
// never a partial batch, and never the records after the tear.
func TestTornOverflowFallsBackToLastValidRecord(t *testing.T) {
	pool, l := newLog(t, 16, 12)
	if _, err := l.Append(opsOf(1, 1), 1); err != nil { // two lines
		t.Fatal(err)
	}
	seq, err := l.Append(opsOf(8, 2), 2) // seven lines
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(3, 3), 3); err != nil {
		t.Fatal(err)
	}
	if recs := l.Records(); len(recs) != 3 {
		t.Fatalf("setup wrong: %+v", recs)
	}
	corrupt(pool, l.LineAddr(seq+3)+2*pmem.WordSize, 0xDEADBEEF)
	pool.Crash(pmem.DropAll)
	l2, w, err := OpenWalk(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	got := l2.Records()
	if len(got) != 1 || got[0].Seq != 1 || len(got[0].Ops) != 1 {
		t.Fatalf("torn continuation: recovered %+v, want only record 1", got)
	}
	// The record after the damaged one is an orphan, and the damaged
	// record's continuation lines are neither damage nor heads.
	if len(w.BadSeqs) != 1 || w.BadSeqs[0] != seq || len(w.Orphans) != 1 || !w.Damaged() {
		t.Fatalf("walk bad=%v orphans=%d, want [%d] and 1", w.BadSeqs, len(w.Orphans), seq)
	}
}

// TestCrashMidOverflowWriteInvisible emulates a crash in the middle of
// a multi-line append: the record's lines are written and flushed but
// never fenced, and a random oracle decides which lines reached NVM.
// The record must recover either complete or not at all. Odd seeds
// stage the record over the region's wrap point.
func TestCrashMidOverflowWriteInvisible(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		pool, l := newLog(t, 16, 12)
		if seed%2 == 1 {
			// Move the append frontier to four lines before the end,
			// so the staged record starts two lines before it.
			for l.lines-int(l.NextSeq()-1)%l.lines > 4 {
				if _, err := l.Append(opsOf(1, 9), 9); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Truncate(l.NextSeq() - 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(opsOf(2, 1), 1); err != nil {
			t.Fatal(err)
		}
		ops := opsOf(9, 2)
		seq := l.NextSeq()
		l.storeLines(seq, l.frame(seq, KindOps, 2, payloadOf(ops)))
		// no fence
		pool.Crash(pmem.SeededOracle(seed, 1, 2))
		l2, err := Open(pool, 0, l.Base())
		if err != nil {
			t.Fatal(err)
		}
		recs := l2.Records()
		switch len(recs) {
		case 1: // staged append invisible
		case 2: // every line survived: must be the complete batch
			if len(recs[1].Ops) != len(ops) {
				t.Fatalf("seed %d: partial batch surfaced: %d ops", seed, len(recs[1].Ops))
			}
			for k := range ops {
				if recs[1].Ops[k] != ops[k] {
					t.Fatalf("seed %d: corrupt op %d recovered", seed, k)
				}
			}
		default:
			t.Fatalf("seed %d: %d records", seed, len(recs))
		}
	}
}

// TestWrapAroundRecord appends a record that starts on the region's
// last line and continues at its first: one persistent fence, and it
// reads back complete before and after a crash.
func TestWrapAroundRecord(t *testing.T) {
	pool, l := newLog(t, 8, 12) // 24 lines
	// A three-line record makes the frontier's distance to the end odd;
	// two-line records then bring it to the last line.
	if _, err := l.Append(opsOf(3, 1), 1); err != nil {
		t.Fatal(err)
	}
	for l.lines-int(l.NextSeq()-1)%l.lines != 1 {
		if _, err := l.Append(opsOf(1, 1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(l.NextSeq() - 1); err != nil {
		t.Fatal(err)
	}
	ops := opsOf(12, 7)
	pool.ResetStats()
	seq, err := l.Append(ops, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.StatsOf(0); st.PersistentFences != 1 {
		t.Fatalf("wrapping append used %d persistent fences, want 1", st.PersistentFences)
	}
	if l.LineAddr(seq+1) != l.LineAddr(1) {
		t.Fatalf("record at seq %d does not wrap", seq)
	}
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	recs := l2.Records()
	if len(recs) != 1 || recs[0].Seq != seq || len(recs[0].Ops) != len(ops) || recs[0].Ops[11] != ops[11] {
		t.Fatalf("wrapped record recovered as %+v", recs)
	}
	if l2.NextSeq() != l.NextSeq() || l2.Len() != 1 {
		t.Fatalf("reopened NextSeq=%d Len=%d, want %d and 1", l2.NextSeq(), l2.Len(), l.NextSeq())
	}
}

// TestOverflowRingFullAndReuse drives the region to ErrFull with
// worst-case records and back: truncation frees the lines for reuse
// across the wrap point without disturbing surviving records.
func TestOverflowRingFullAndReuse(t *testing.T) {
	_, l := newLog(t, 8, 12) // 8*2 + 1*(10-2) = 24 lines: two 12-op records
	for i := 1; i <= 2; i++ {
		if _, err := l.Append(opsOf(12, i), uint64(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append(opsOf(12, 3), 3); err != ErrFull {
		t.Fatalf("third worst-case record: %v, want ErrFull", err)
	}
	// A one-op record still fits the last four lines.
	if _, err := l.Append(opsOf(1, 4), 4); err != nil {
		t.Fatalf("one-op append on a nearly full log: %v", err)
	}
	if err := l.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(12, 5), 5); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("%d live records, want 3", len(recs))
	}
	for _, rec := range recs {
		for k, o := range rec.Ops {
			if o.ID == 0 || int(o.Code)%100 != k+1 {
				t.Fatalf("record %d decoded garbage after reuse: %+v", rec.Seq, o)
			}
		}
	}
}

// TestOverflowReuseNeverClobbersLiveRecords is a randomized
// append/truncate/crash fuzz: at every point, every live record must
// decode back exactly as appended — line reuse may never overwrite a
// line a live record still holds.
func TestOverflowReuseNeverClobbersLiveRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		pool, l := newLog(t, 24, 10)
		live := map[uint64][]spec.Op{}
		for step := 0; step < 120; step++ {
			n := 1 + rng.Intn(10)
			ops := opsOf(n, step+1)
			seq, err := l.Append(ops, uint64(step+1))
			switch err {
			case nil:
				live[seq] = ops
			case ErrFull:
				// Truncate about half the live range and retry later.
				upto := l.HeadSeq() + (l.NextSeq()-1-l.HeadSeq())/2
				if terr := l.Truncate(upto); terr != nil {
					t.Fatal(terr)
				}
				for s := range live {
					if s <= upto {
						delete(live, s)
					}
				}
			default:
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if step%17 == 0 {
				pool.Crash(pmem.DropAll) // everything live is fenced: must survive
				l2, err := Open(pool, 0, l.Base())
				if err != nil {
					t.Fatalf("trial %d step %d: reopen: %v", trial, step, err)
				}
				l = l2
			}
			recs := l.Records()
			if len(recs) != len(live) || l.Len() != len(live) {
				t.Fatalf("trial %d step %d: %d live records (Len %d), want %d", trial, step, len(recs), l.Len(), len(live))
			}
			for _, rec := range recs {
				want := live[rec.Seq]
				if len(rec.Ops) != len(want) {
					t.Fatalf("trial %d step %d seq %d: %d ops, want %d",
						trial, step, rec.Seq, len(rec.Ops), len(want))
				}
				for k := range want {
					if rec.Ops[k] != want[k] {
						t.Fatalf("trial %d step %d seq %d op %d clobbered: %v want %v",
							trial, step, rec.Seq, k, rec.Ops[k], want[k])
					}
				}
			}
		}
	}
}

// TestRoomPromisesAppends pins Room's promise on a log whose live lines
// random truncations keep moving around the region: when Room(k)
// holds, the next k appends fit, each with any op count up to MaxOps,
// wrapping or not.
func TestRoomPromisesAppends(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		_, l := newLog(t, 32, 12) // 32*2 + 4*8 = 96 lines: nine worst-case records
		rng := rand.New(rand.NewSource(seed))
		var idx uint64
		var kept, short int
		for step := 0; step < 400; step++ {
			k := 1 + rng.Intn(2)
			switch err := l.Room(k); {
			case err == nil:
				kept++
				for j := 0; j < k; j++ {
					idx++
					if _, err := l.Append(opsOf(1+rng.Intn(12), int(idx)), idx); err != nil {
						t.Fatalf("seed %d step %d: append %d of %d after Room(%d): %v", seed, step, j+1, k, k, err)
					}
				}
			case errors.Is(err, ErrFull):
				short++
				if l.Len() == 0 {
					t.Fatalf("seed %d step %d: Room(%d) = %v on an empty log", seed, step, k, err)
				}
				// Truncate a random prefix of the live lines.
				if err := l.Truncate(l.HeadSeq() + 1 + uint64(rng.Intn(int(l.NextSeq()-1-l.HeadSeq())))); err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatalf("Room: %v", err)
			}
		}
		if kept == 0 || short == 0 {
			t.Fatalf("seed %d: Room held %d times and failed %d; the test is vacuous", seed, kept, short)
		}
	}
}
