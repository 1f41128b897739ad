package plog

import (
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

// buildTieredLogWithOverflow returns a pool and a two-tier log holding a
// mix of inline records, spilled records and snapshot records, all
// durable (inline budget 2, so batches of 3+ ops overflow).
func buildTieredLogWithOverflow(t *testing.T) (*pmem.Pool, *Log) {
	t.Helper()
	pool := pmem.New(1<<20, nil)
	l, err := CreateInline(pool, 0, 32, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{0xC0DE0007, 2, 10, 100, 20, 200}
	for i := 1; i <= 12; i++ {
		switch {
		case i%5 == 0:
			if _, err := l.AppendSnapshot(state, uint64(i)); err != nil {
				t.Fatal(err)
			}
		default:
			ops := opsOf(1+i%7, i) // sizes 1..7: inline and spilled mixed
			if _, err := l.Append(ops, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pool, l
}

// TestFuzzRandomCorruptionTwoTierNeverPanics is the two-tier variant of
// the fuzz above: random durable bit flips over the whole log region —
// header, inline slots, overflow ring and snapshot regions — must leave
// Open + Records rejecting or returning only verifying, COMPLETE
// records (an overflow record may never surface with a partial batch).
func TestFuzzRandomCorruptionTwoTierNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		pool, l := buildTieredLogWithOverflow(t)
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
				if rec.Kind == KindSnapshot && rec.State == nil {
					t.Fatalf("trial %d: snapshot record without state", trial)
				}
				if rec.Kind == KindOps && rec.Overflow &&
					len(rec.Ops) <= l2.InlineOps() {
					t.Fatalf("trial %d: spilled record with %d ops surfaced", trial, len(rec.Ops))
				}
			}
		}()
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
	// Payload word [4] of the record is the region length.
	addr := l.slotAddr(seq) + pmem.Addr(4*pmem.WordSize)
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
	rec, st := l.probeSlot(seq, l.cachedReader())
	if st != SlotOK || rec.Kind != KindSnapshot {
		t.Fatal("snapshot record should verify before corruption")
	}
	regionAddr := pmem.Addr(pool.Load(0, l.slotAddr(seq)+pmem.Addr(3*pmem.WordSize)))
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
