package plog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// corrupt durably overwrites one word of the pool (Store + Persist on a
// scratch pid), simulating an adversarially damaged NVM image.
func corrupt(pool *pmem.Pool, addr pmem.Addr, val uint64) {
	pool.Store(pmem.RootSystemPID, addr, val)
	pool.Persist(pmem.RootSystemPID, addr, pmem.WordSize)
}

// buildLogWithSnapshots returns a pool and a log holding a mix of ops
// records and snapshot records, all durable.
func buildLogWithSnapshots(t *testing.T) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{0xC0DE0007, 2, 10, 100, 20, 200} // a plausible map snapshot
	for i := 1; i <= 10; i++ {
		if i%4 == 0 {
			if _, err := l.AppendSnapshot(state, uint64(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pool, l
}

// TestFuzzRandomCorruptionNeverPanics sprays random durable bit flips
// over the log region (records, snapshot pointers, counts, tags and the
// header alike) and requires Open + Records to either reject the log or
// return only verifying records — never panic, never read out of
// bounds.
func TestFuzzRandomCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		pool, l := buildLogWithSnapshots(t)
		pool.Crash(pmem.DropAll)
		// Flip 1..4 random words anywhere in the first part of the pool
		// (covers the header line, record slots and snapshot regions).
		for n := 1 + rng.Intn(4); n > 0; n-- {
			w := rng.Intn(pool.Size() / (4 * pmem.WordSize))
			addr := pmem.Addr(w * pmem.WordSize)
			var val uint64
			switch rng.Intn(3) {
			case 0:
				val = rng.Uint64() // random garbage
			case 1:
				val = pool.DurableWord(addr) ^ (1 << uint(rng.Intn(64))) // single bit flip
			default:
				val = ^uint64(0) // saturated count/pointer
			}
			corrupt(pool, addr, val)
		}
		pool.Crash(pmem.DropAll)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			l2, err := Open(pool, 0, l.Base())
			if err != nil {
				return // rejected: fine
			}
			for _, rec := range l2.Records() {
				if rec.Kind == KindSnapshot && rec.State == nil {
					t.Fatalf("trial %d: snapshot record without state", trial)
				}
			}
		}()
	}
}

// buildMultiLineLog returns a pool and a log holding a mix of one- to
// seven-op records (two to six lines each) and snapshot records, all
// durable, with the newest records wrapped past the region's end.
func buildMultiLineLog(t *testing.T) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 8, 12) // 8*2 + 1*8 = 24 lines
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{0xC0DE0007, 2, 10, 100, 20, 200}
	for i := 1; i <= 12; i++ {
		var err error
		if i%5 == 0 {
			_, err = l.AppendSnapshot(state, uint64(i))
		} else {
			_, err = l.Append(opsOf(1+i%7, i), uint64(i))
		}
		if err == ErrFull {
			if err := l.Truncate(l.HeadSeq() + 1); err != nil {
				t.Fatal(err)
			}
			i--
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if l.NextSeq() <= uint64(l.lines) {
		t.Fatal("the records never wrapped; the log shape is not the one documented")
	}
	return pool, l
}

// checkComplete opens the corrupted log and requires it to be rejected
// or to return only verifying, complete records.
func checkComplete(t *testing.T, pool *pmem.Pool, base pmem.Addr, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", what, r)
		}
	}()
	l2, err := Open(pool, 0, base)
	if err != nil {
		return // rejected: fine
	}
	for _, rec := range l2.Records() {
		if rec.Kind == KindSnapshot && rec.State == nil {
			t.Fatalf("%s: snapshot record without state", what)
		}
		if rec.Kind == KindOps {
			want := opsOf(1+int(rec.ExecIdx)%7, int(rec.ExecIdx))
			if len(rec.Ops) != len(want) || rec.Ops[len(want)-1] != want[len(want)-1] {
				t.Fatalf("%s: record %d surfaced with %d ops, want %d", what, rec.Seq, len(rec.Ops), len(want))
			}
		}
	}
}

// TestFuzzRandomCorruptionMultiLineNeverPanics is the multi-line
// variant of the fuzz above: random durable bit flips over the whole
// log region — header, head and continuation lines, the wrap point and
// snapshot regions — must leave Open + Records rejecting or returning
// only verifying, COMPLETE records (a record may never surface with a
// partial batch).
func TestFuzzRandomCorruptionMultiLineNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		pool, l := buildMultiLineLog(t)
		pool.Crash(pmem.DropAll)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			w := rng.Intn(pool.Size() / (4 * pmem.WordSize))
			addr := pmem.Addr(w * pmem.WordSize)
			var val uint64
			switch rng.Intn(3) {
			case 0:
				val = rng.Uint64()
			case 1:
				val = pool.DurableWord(addr) ^ (1 << uint(rng.Intn(64)))
			default:
				val = ^uint64(0)
			}
			corrupt(pool, addr, val)
		}
		pool.Crash(pmem.DropAll)
		checkComplete(t, pool, l.Base(), fmt.Sprintf("trial %d", trial))
	}
}

// TestFuzzLineTagsNeverPanic seeds the framing itself: every line's tag
// is overwritten, in turn, with values a torn or misdirected write
// could leave — its own seq with and without the continuation flag,
// its neighbours' seqs, a seq one pass over the region earlier, zero
// and all ones. Each image must open to a valid prefix of complete
// records, and salvage's Resume must not panic either.
func TestFuzzLineTagsNeverPanic(t *testing.T) {
	pool, l := buildMultiLineLog(t)
	pool.Crash(pmem.DropAll)
	first, last := l.HeadSeq()+1, l.NextSeq()-1
	for seq := first; seq <= last; seq++ {
		for _, tag := range []uint64{
			seq, seq | tagCont, seq + 1, (seq - 1) | tagCont, (seq + 1) | tagCont,
			seq - uint64(l.lines), (seq - uint64(l.lines)) | tagCont, 0, ^uint64(0),
		} {
			addr := l.LineAddr(seq)
			old := pool.DurableWord(addr)
			corrupt(pool, addr, tag)
			pool.Crash(pmem.DropAll)
			what := fmt.Sprintf("line %d tag %#x", seq, tag)
			checkComplete(t, pool, l.Base(), what)
			if l2, w, err := OpenWalk(pool, 0, l.Base()); err == nil {
				l2.Resume(w)
			}
			corrupt(pool, addr, old)
			pool.Crash(pmem.DropAll)
		}
	}
}

// buildLogWithDeltaChain returns a pool and a log holding ops records
// plus a live delta chain (base + 3 deltas) truncated down to the chain
// head — the shape delta-cut compaction leaves behind.
func buildLogWithDeltaChain(t *testing.T) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{0xC0DE0007, 2, 10, 100, 20, 200}
	for i := 1; i <= 4; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendChainBase(state, 4); err != nil {
		t.Fatal(err)
	}
	for i := 5; i <= 7; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendDelta([]uint64{uint64(i), uint64(i * 10)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.Truncate(l.NextSeq() - 2); err != nil {
			t.Fatal(err)
		}
	}
	return pool, l
}

// TestFuzzRandomCorruptionDeltaChainNeverPanics sprays random durable
// bit flips over a log whose live state is a delta chain: header, the
// surviving record slot, chain bodies and back-references alike. Open +
// Records + ResolveChain must reject or return only verifying,
// base-anchored chains — never panic, never follow a forged pointer out
// of bounds.
func TestFuzzRandomCorruptionDeltaChainNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		pool, l := buildLogWithDeltaChain(t)
		pool.Crash(pmem.DropAll)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			w := rng.Intn(pool.Size() / (4 * pmem.WordSize))
			addr := pmem.Addr(w * pmem.WordSize)
			var val uint64
			switch rng.Intn(3) {
			case 0:
				val = rng.Uint64()
			case 1:
				val = pool.DurableWord(addr) ^ (1 << uint(rng.Intn(64)))
			default:
				val = ^uint64(0)
			}
			corrupt(pool, addr, val)
		}
		pool.Crash(pmem.DropAll)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			l2, err := Open(pool, 0, l.Base())
			if err != nil {
				return // rejected: fine
			}
			for _, rec := range l2.Records() {
				if rec.Kind != KindDelta {
					continue
				}
				if rec.Body == nil {
					t.Fatalf("trial %d: delta record without body", trial)
				}
				elems, err := l2.ResolveChain(rec)
				if err != nil {
					continue // unresolvable: recovery falls back
				}
				if len(elems) == 0 || !elems[0].Base {
					t.Fatalf("trial %d: resolved chain not base-anchored", trial)
				}
				for i := 1; i < len(elems); i++ {
					if elems[i].Base || elems[i].ExecIdx <= elems[i-1].ExecIdx {
						t.Fatalf("trial %d: chain order violated", trial)
					}
				}
			}
		}()
	}
}

// TestTruncatedSnapshotRegionRejected shrinks a snapshot record's region
// length below the written state (a torn count word) and requires the
// record to fail verification, not to panic or return short state.
func TestTruncatedSnapshotRegionRejected(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	seq, err := l.AppendSnapshot(state, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Image word [4] of the record is the region length (line word 5,
	// behind the tag).
	addr := l.LineAddr(seq) + pmem.Addr(5*pmem.WordSize)
	for _, bad := range []uint64{3, 0, ^uint64(0), 1 << 40} {
		corrupt(pool, addr, bad)
		pool.Crash(pmem.KeepAll)
		l2, err := Open(pool, 0, l.Base())
		if err != nil {
			continue // whole-log rejection is acceptable for wild values
		}
		for _, rec := range l2.Records() {
			if rec.Kind == KindSnapshot {
				t.Fatalf("length %d: truncated snapshot record verified", bad)
			}
		}
	}
}

// TestSnapshotWrongTagSurvivesRecovery flips the tag word inside the
// snapshot body: the record checksum must fail (the body changed), so
// recovery treats the snapshot as never appended instead of restoring a
// mistagged state.
func TestSnapshotWrongTagSurvivesRecovery(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	l, err := Create(pool, 0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{0xC0DE0007, 1, 5, 50} // map-tagged snapshot
	seq, err := l.AppendSnapshot(state, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find the region via the record payload and corrupt the tag word.
	rec, st, _ := l.probe(seq, l.cachedReader())
	if st != SlotOK || rec.Kind != KindSnapshot {
		t.Fatal("snapshot record should verify before corruption")
	}
	regionAddr := pmem.Addr(pool.Load(0, l.LineAddr(seq)+pmem.Addr(4*pmem.WordSize)))
	corrupt(pool, regionAddr, 0xC0DE0003) // now claims to be a stack snapshot
	pool.Crash(pmem.KeepAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range l2.Records() {
		if r.Kind == KindSnapshot {
			t.Fatal("mistagged snapshot body verified against its checksum")
		}
	}
}
