package plog

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Tests of the two-tier slot scheme: inline slots plus the shared
// overflow ring. The contract under test is that the split is
// invisible to readers (Records always returns complete op batches),
// costs the same single persistent fence, and degrades under crashes
// and corruption exactly like the single-tier layout: a record whose
// overflow tail is torn is treated as never appended, and validity
// stays prefix-closed.

// newTieredLog returns a log where records with more than inlineOps
// operations must spill to the overflow ring.
func newTieredLog(t testing.TB, capacity, maxOps, inlineOps int) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(RegionBytesInline(capacity, maxOps, inlineOps)+1<<18, nil)
	l, err := CreateInline(pool, 0, capacity, maxOps, inlineOps)
	if err != nil {
		t.Fatalf("CreateInline: %v", err)
	}
	return pool, l
}

func opsOf(n, salt int) []spec.Op {
	ops := make([]spec.Op, n)
	for i := range ops {
		ops[i] = op(uint64(salt*100+i+1), uint64(salt*1000+i+1))
	}
	return ops
}

// TestOverflowAppendRoundTrip appends records at every op count from 1
// to maxOps and requires each to cost exactly one persistent fence and
// to decode back complete, with the Overflow flag set exactly when the
// count exceeds the inline budget.
func TestOverflowAppendRoundTrip(t *testing.T) {
	pool, l := newTieredLog(t, 64, 12, 4) // ring: 64*40/8 = 320 words, fits every tail below
	var want [][]spec.Op
	for n := 1; n <= 12; n++ {
		ops := opsOf(n, n)
		pool.ResetStats()
		if _, err := l.Append(ops, uint64(n)); err != nil {
			t.Fatalf("append %d ops: %v", n, err)
		}
		st := pool.StatsOf(0)
		if st.PersistentFences != 1 {
			t.Fatalf("append of %d ops used %d persistent fences, want 1", n, st.PersistentFences)
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
		if wantOvf := len(want[i]) > l2.InlineOps(); rec.Overflow != wantOvf {
			t.Fatalf("record %d (%d ops): Overflow=%v want %v", i, len(want[i]), rec.Overflow, wantOvf)
		}
	}
}

// TestTornOverflowFallsBackToLastValidRecord corrupts one durable word
// of a middle record's overflow chunk: recovery must surface exactly
// the records before it (prefix-closed fallback), never a partial
// batch, and never the records after the tear.
func TestTornOverflowFallsBackToLastValidRecord(t *testing.T) {
	pool, l := newTieredLog(t, 16, 12, 4)
	if _, err := l.Append(opsOf(2, 1), 1); err != nil { // inline
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(8, 2), 2); err != nil { // overflows
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(3, 3), 3); err != nil { // inline
		t.Fatal(err)
	}
	recs := l.Records()
	if len(recs) != 3 || !recs[1].Overflow {
		t.Fatalf("setup wrong: %+v", recs)
	}
	off, words, ok := recs[1].OverflowSpan()
	if !ok || words != 4*spec.OpWords {
		t.Fatalf("overflow span: off=%d words=%d ok=%v", off, words, ok)
	}
	ovfBase, _ := l.OverflowRegion()
	corrupt(pool, ovfBase+pmem.Addr((off+1)*pmem.WordSize), 0xDEADBEEF)
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	got := l2.Records()
	if len(got) != 1 || got[0].Seq != 1 || len(got[0].Ops) != 2 {
		t.Fatalf("torn overflow: recovered %+v, want only record 1", got)
	}
}

// TestCrashMidOverflowWriteInvisible emulates a crash in the middle of
// a spilling append: tail and slot are written and flushed but never
// fenced, and a random oracle decides which lines reached NVM. The
// record must recover either complete or not at all — the same
// recoverable-equivalence the single-tier layout provides.
func TestCrashMidOverflowWriteInvisible(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		pool, l := newTieredLog(t, 16, 12, 4)
		if _, err := l.Append(opsOf(2, 1), 1); err != nil {
			t.Fatal(err)
		}
		// Stage a spilling append by hand: overflow tail first, then the
		// inline slot image, all flushed, NO fence (the crash beats it).
		ops := opsOf(9, 2)
		tail := []uint64{}
		for _, o := range ops[l.inlineOps:] {
			tail = o.Encode(tail)
		}
		off, ok := l.claimOvf(len(tail))
		if !ok {
			t.Fatal("claimOvf failed on an empty ring")
		}
		tailAddr := l.ovfBase + pmem.Addr(off*pmem.WordSize)
		pool.StoreRange(0, tailAddr, tail)
		pool.FlushRange(0, tailAddr, len(tail)*pmem.WordSize)
		seq := l.NextSeq()
		words := []uint64{seq, uint64(kindOpsOvf)<<32 | uint64(len(ops)), 2}
		for _, o := range ops[:l.inlineOps] {
			words = o.Encode(words)
		}
		words = append(words, uint64(off), uint64(len(tail)), checksum(tail))
		words = append(words, checksum(words))
		addr := l.slotAddr(seq)
		pool.StoreRange(0, addr, words)
		pool.FlushRange(0, addr, len(words)*pmem.WordSize)
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
				t.Fatalf("seed %d: partial overflow batch surfaced: %d ops", seed, len(recs[1].Ops))
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

// TestOverflowRingFullAndReuse drives the ring to exhaustion and back:
// the geometry below holds exactly 4 worst-case chunks, so the 5th
// spilling append fails with ErrOvfFull, and truncation must free the
// chunks for reuse without disturbing surviving records.
func TestOverflowRingFullAndReuse(t *testing.T) {
	_, l := newTieredLog(t, 32, 12, 4)
	if _, n := l.OverflowRegion(); n != 4*ovfChunkWords(12, 4) {
		t.Fatalf("ring sized %d words, test assumes %d", n, 4*ovfChunkWords(12, 4))
	}
	for i := 1; i <= 4; i++ {
		if _, err := l.Append(opsOf(12, i), uint64(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append(opsOf(12, 5), 5); err != ErrOvfFull {
		t.Fatalf("5th full-width spill: %v, want ErrOvfFull", err)
	}
	// Inline appends still work while the ring is full.
	if _, err := l.Append(opsOf(2, 6), 6); err != nil {
		t.Fatalf("inline append with full ring: %v", err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(opsOf(12, 7), 7); err != nil {
		t.Fatalf("spill after truncate: %v", err)
	}
	recs := l.Records()
	if len(recs) != 4 { // seqs 3,4,5(inline),6(new spill)
		t.Fatalf("%d live records, want 4", len(recs))
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
// decode back exactly as appended — chunk reuse may never overwrite a
// chunk a live record still references.
func TestOverflowReuseNeverClobbersLiveRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		pool, l := newTieredLog(t, 24, 10, 3)
		live := map[uint64][]spec.Op{}
		head := uint64(0)
		for step := 0; step < 120; step++ {
			n := 1 + rng.Intn(10)
			ops := opsOf(n, step+1)
			seq, err := l.Append(ops, uint64(step+1))
			switch err {
			case nil:
				live[seq] = ops
			case ErrFull, ErrOvfFull:
				// Truncate half the live range and retry later.
				upto := head + (l.NextSeq()-1-head)/2
				if upto > head {
					if terr := l.Truncate(upto); terr != nil {
						t.Fatal(terr)
					}
					for s := range live {
						if s <= upto {
							delete(live, s)
						}
					}
					head = upto
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
			if len(recs) != len(live) {
				t.Fatalf("trial %d step %d: %d live records, want %d", trial, step, len(recs), len(live))
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

// TestRoomPromisesAppends pins Room's promise on a ring fragmented by
// random truncations: when Room(k) holds, the next k appends fit, each
// with any op count up to MaxOps, whatever ring position claimOvf picks
// for them.
func TestRoomPromisesAppends(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		_, l := newTieredLog(t, 32, 12, 4) // ring: 4 worst-case chunks
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
			case errors.Is(err, ErrFull) || errors.Is(err, ErrOvfFull):
				short++
				if l.Len() == 0 {
					t.Fatalf("seed %d step %d: Room(%d) = %v on an empty log", seed, step, k, err)
				}
				// Truncate a random prefix of the live records.
				if err := l.Truncate(l.HeadSeq() + 1 + uint64(rng.Intn(l.Len()))); err != nil {
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
