package plog

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Geometry tests: Create/Open round-trips over random (capacity,
// maxOps), and adversarial headers and record length words. The
// absolute rule: Open consumes untrusted NVM and must reject bad
// geometry with an error — it may never panic or read out of bounds.

// TestGeometryRoundTripFuzz creates logs with random geometry, drives
// random append/snapshot/truncate traffic, crashes, reopens, and
// requires the reopened log to report the identical geometry and the
// identical record contents.
func TestGeometryRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		capacity := 1 + rng.Intn(40)
		maxOps := 1 + rng.Intn(16)
		pool := pmem.New(RegionBytes(capacity, maxOps)+1<<18, nil)
		l, err := Create(pool, 0, capacity, maxOps)
		if err != nil {
			t.Fatalf("trial %d: Create(%d,%d): %v", trial, capacity, maxOps, err)
		}
		type entry struct {
			kind int
			ops  []spec.Op
			snap []uint64
		}
		live := map[uint64]entry{}
		head := uint64(0)
		for step := 0; step < 40; step++ {
			if rng.Intn(6) == 0 { // snapshot record
				snap := make([]uint64, 1+rng.Intn(40))
				for i := range snap {
					snap[i] = rng.Uint64()
				}
				seq, err := l.AppendSnapshot(snap, uint64(step+1))
				if err == ErrFull {
					// Compaction semantics: drop everything the snapshot
					// covers, then retry.
					if upto := l.NextSeq() - 1; upto > head {
						if terr := l.Truncate(upto); terr != nil {
							t.Fatal(terr)
						}
						live, head = map[uint64]entry{}, l.HeadSeq()
					}
					seq, err = l.AppendSnapshot(snap, uint64(step+1))
				}
				if err != nil {
					t.Fatalf("trial %d: snapshot: %v", trial, err)
				}
				live[seq] = entry{kind: KindSnapshot, snap: snap}
				// Truncate behind the snapshot, as compaction does: the
				// ping-pong snapshot regions only keep the two newest
				// bodies intact, so older snapshot records must not stay
				// live.
				if seq-1 > head {
					if err := l.Truncate(seq - 1); err != nil {
						t.Fatal(err)
					}
					for s := range live {
						if s < seq {
							delete(live, s)
						}
					}
					head = l.HeadSeq()
				}
				continue
			}
			n := 1 + rng.Intn(maxOps)
			ops := opsOf(n, step+1)
			seq, err := l.Append(ops, uint64(step+1))
			switch err {
			case nil:
				live[seq] = entry{kind: KindOps, ops: ops}
			case ErrFull:
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
					head = l.HeadSeq()
				}
			default:
				t.Fatalf("trial %d: append: %v", trial, err)
			}
		}
		pool.Crash(pmem.DropAll)
		l2, err := Open(pool, 0, l.Base())
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		if l2.Capacity() != l.Capacity() || l2.MaxOps() != l.MaxOps() ||
			l2.lines != l.lines || l2.HeadSeq() != l.HeadSeq() ||
			l2.NextSeq() != l.NextSeq() || l2.Len() != l.Len() {
			t.Fatalf("trial %d: geometry drift: %+v vs %+v", trial, l2, l)
		}
		recs := l2.Records()
		if len(recs) != len(live) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(recs), len(live))
		}
		for _, rec := range recs {
			want, ok := live[rec.Seq]
			if !ok || rec.Kind != want.kind {
				t.Fatalf("trial %d: unexpected record %+v", trial, rec)
			}
			for k := range want.ops {
				if rec.Ops[k] != want.ops[k] {
					t.Fatalf("trial %d seq %d: op %d drift", trial, rec.Seq, k)
				}
			}
			for k := range want.snap {
				if rec.State[k] != want.snap[k] {
					t.Fatalf("trial %d seq %d: snapshot word %d drift", trial, rec.Seq, k)
				}
			}
		}
	}
}

// TestCreateInlineValidation pins the shim the benchmark builds logs
// with: the inline budget is ignored, whatever its value.
func TestCreateInlineValidation(t *testing.T) {
	pool := pmem.New(1<<20, nil)
	for _, inline := range []int{-1, 0, DefaultInlineOps, 9} {
		l, err := CreateInline(pool, 0, 8, 12, inline)
		if err != nil {
			t.Fatalf("inline %d: %v", inline, err)
		}
		if l.lines != regionLines(8, 12) || l.Capacity() != 8 || l.MaxOps() != 12 {
			t.Fatalf("inline %d: geometry %d lines, capacity %d, maxOps %d", inline, l.lines, l.Capacity(), l.MaxOps())
		}
	}
	if _, err := CreateInline(pool, 0, 0, 12, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestRegionSizing pins what a region holds: Capacity one-op records
// plus, for an eighth of them, room to be worst-case, so no geometry
// outgrows the two-tier layout's inline slots plus its 1/8 overflow
// ring (that layout's sizes, in lines, are written out below). Room
// keeps one line for a compaction record, so at MaxOps 1 and 2, where
// a worst-case record is a one-op record's two lines, it holds for one
// record fewer than Capacity.
func TestRegionSizing(t *testing.T) {
	for _, g := range []struct{ capacity, maxOps, twoTier int }{
		{4096, 1, 4096 * 2},
		{4096, 2, 4096 * 2},
		{4096, 4, 4096 * 3},
		{4096, 68, 4096*4 + 4096*320/8/8},
		{512, 64, 512*4 + 512*300/8/8},
		{64, 3, 64 * 3},
	} {
		if got := regionLines(g.capacity, g.maxOps); got > g.twoTier {
			t.Errorf("capacity %d maxOps %d: %d lines, the two-tier layout took %d", g.capacity, g.maxOps, got, g.twoTier)
		}
		_, l := newLog(t, g.capacity, g.maxOps)
		n := 0
		for l.Room(1) == nil {
			if _, err := l.Append(opsOf(1, 1), 1); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n < g.capacity-1 {
			t.Errorf("capacity %d maxOps %d: Room held for %d one-op records", g.capacity, g.maxOps, n)
		}
	}
}

// TestOpenRejectsAdversarialGeometry corrupts each geometry word of a
// valid header with values that disagree with the recomputed layout:
// Open must reject every one of them (the line count is derived, so a
// forged header cannot move lines). A header of the two-tier layout is
// refused with ErrLayout.
func TestOpenRejectsAdversarialGeometry(t *testing.T) {
	build := func() (*pmem.Pool, *Log) {
		pool, l := newLog(t, 16, 12)
		for i := 1; i <= 6; i++ {
			if _, err := l.Append(opsOf(1+i%12, i), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		pool.Crash(pmem.DropAll)
		return pool, l
	}
	cases := []struct {
		word int
		vals []uint64
	}{
		{hdrMagic, []uint64{0, ^uint64(0), logMagic + 1}},
		{hdrCapacity, []uint64{0, 17, ^uint64(0), 1 << 40}},
		{hdrLines, []uint64{0, 8, 24, 40, ^uint64(0)}},
		{hdrMaxOps, []uint64{0, 4, 13, ^uint64(0), 1 << 20}},
	}
	for _, c := range cases {
		for _, v := range c.vals {
			pool, l := build()
			corrupt(pool, l.Base()+pmem.Addr(c.word*pmem.WordSize), v)
			pool.Crash(pmem.DropAll)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("hdr[%d]=%#x: Open panicked: %v", c.word, v, r)
					}
				}()
				if _, err := Open(pool, 0, l.Base()); err == nil {
					t.Fatalf("hdr[%d]=%#x: Open accepted inconsistent geometry", c.word, v)
				}
			}()
		}
	}
	pool, l := build()
	hdr := l.headerImage(0)
	hdr[hdrMagic] = legacyMagic
	hdr[hdrSum] = checksum(hdr[:hdrSum])
	pool.StoreRange(0, l.Base(), hdr[:])
	pool.Persist(0, l.Base(), pmem.LineSize)
	if _, err := Open(pool, 0, l.Base()); err != ErrLayout {
		t.Fatalf("two-tier header: Open = %v, want ErrLayout", err)
	}
}

// TestOverflowDescriptorOutOfRangeRejected forges a record's kind and
// length word — the field that decides how many continuation lines the
// probe reads — with lengths past MaxOps, off the op grid, huge or
// zero, a non-3 snapshot payload, and the retired spilled-tail kind.
// The probe must reject each before it reads a line the length names:
// the record is rejected and Open does not panic.
func TestOverflowDescriptorOutOfRangeRejected(t *testing.T) {
	for _, kw := range []uint64{
		KindOps<<32 | 0, KindOps<<32 | 1, KindOps<<32 | (spec.OpWords - 1),
		KindOps<<32 | 13*spec.OpWords, KindOps<<32 | (12*spec.OpWords + 1),
		KindOps<<32 | 1<<31, KindOps<<32 | 0xffffffff,
		KindSnapshot<<32 | 4, KindDelta<<32 | 0xffffffff,
		3<<32 | 8, ^uint64(0),
	} {
		pool, l := newLog(t, 16, 12)
		if _, err := l.Append(opsOf(8, 1), 1); err != nil {
			t.Fatal(err)
		}
		corrupt(pool, l.LineAddr(1)+2*pmem.WordSize, kw)
		pool.Crash(pmem.DropAll)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("kind word %#x: panicked: %v", kw, r)
				}
			}()
			l2, err := Open(pool, 0, l.Base())
			if err != nil {
				return // whole-log rejection: acceptable
			}
			if _, st, _ := l2.probe(1, l2.cachedReader()); st != SlotBad {
				t.Fatalf("kind word %#x: record probes %v, want %v", kw, st, SlotBad)
			}
		}()
	}
}
