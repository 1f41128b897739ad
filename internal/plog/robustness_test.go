package plog

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Open on a region full of random durable garbage must either reject
// the header or produce only records that verify — never panic, never
// hallucinate ops beyond bounds.
func TestOpenOnRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		pool := pmem.New(1<<18, nil)
		base := pool.MustAlloc(1 << 14)
		for w := 0; w < (1<<14)/pmem.WordSize; w++ {
			pool.Store(0, base+pmem.Addr(w*pmem.WordSize), rng.Uint64())
		}
		pool.Persist(0, base, 1<<14)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			l, err := Open(pool, 0, base)
			if err != nil {
				return // rejected: fine
			}
			// A random 64-bit magic match is astronomically unlikely,
			// but if Open succeeded, Records must still be safe.
			_ = l.Records()
		}()
	}
}

// Corrupting the durable bytes of individual records must invalidate
// exactly the contiguous suffix starting at the first corruption
// (validity is prefix-closed by the scanning rule).
func TestRecordCorruptionInvalidatesSuffix(t *testing.T) {
	for corruptAt := 1; corruptAt <= 8; corruptAt++ {
		pool, l := newLog(t, 16, 2)
		var seqs []uint64
		for i := 1; i <= 8; i++ {
			seq, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		// Corrupt one durable word of record #corruptAt: its execIdx.
		addr := l.LineAddr(seqs[corruptAt-1]) + 3*pmem.WordSize
		pool.Store(0, addr, 0xBADBADBAD)
		pool.Persist(0, addr, pmem.WordSize)
		pool.Crash(pmem.DropAll)
		l2, err := Open(pool, 0, l.Base())
		if err != nil {
			t.Fatal(err)
		}
		recs := l2.Records()
		if len(recs) != corruptAt-1 {
			t.Fatalf("corrupt@%d: %d records survive, want %d", corruptAt, len(recs), corruptAt-1)
		}
		for i, r := range recs {
			if r.Seq != seqs[i] || r.Ops[0].Code != uint64(i+1) {
				t.Fatalf("corrupt@%d: surviving record %d wrong: %+v", corruptAt, i, r)
			}
		}
	}
}

// A snapshot record pointing outside the pool must be rejected, not
// crash the scanner.
func TestSnapshotWithWildPointerRejected(t *testing.T) {
	pool, l := newLog(t, 16, 2)
	if _, err := l.AppendSnapshot([]uint64{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	// Forge the region pointer to point past the pool, fix nothing
	// else: the slot checksum still matches the forged words only if
	// we recompute it — do so, to test the region validation itself.
	addr := l.LineAddr(1) + pmem.WordSize // the image behind the head tag
	words := make([]uint64, 6)
	for i := range words {
		words[i] = pool.Load(0, addr+pmem.Addr(i*pmem.WordSize))
	}
	words[3] = uint64(pool.Size()) + 4096 // wild region pointer
	sum := checksum(words)
	pool.Store(0, addr+3*pmem.WordSize, words[3])
	pool.Store(0, addr+6*pmem.WordSize, sum)
	pool.Persist(0, addr, 6*pmem.WordSize)
	pool.Crash(pmem.DropAll)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("wild snapshot pointer panicked the scanner: %v", r)
			}
		}()
		l2, err := Open(pool, 0, l.Base())
		if err != nil {
			return
		}
		if recs := l2.Records(); len(recs) != 0 {
			t.Fatalf("wild-pointer snapshot accepted: %+v", recs)
		}
	}()
}
