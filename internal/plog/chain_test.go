package plog

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// buildChain appends a base at execIdx b and one delta per element of
// idxs, each with a distinct payload derived from its execIdx.
func buildChain(t *testing.T, l *Log, b uint64, idxs ...uint64) {
	t.Helper()
	if _, err := l.AppendChainBase(chainPayload(b), b); err != nil {
		t.Fatalf("AppendChainBase(%d): %v", b, err)
	}
	for _, ix := range idxs {
		if _, err := l.AppendDelta(chainPayload(ix), ix); err != nil {
			t.Fatalf("AppendDelta(%d): %v", ix, err)
		}
	}
}

func chainPayload(ix uint64) []uint64 {
	return []uint64{ix * 3, ix * 5, ix * 7}
}

func newestDelta(t *testing.T, l *Log) Record {
	t.Helper()
	recs := l.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == KindDelta {
			return recs[i]
		}
	}
	t.Fatal("no delta record live")
	return Record{}
}

func TestChainAppendResolveRoundTrip(t *testing.T) {
	_, l := newLog(t, 64, 4)
	buildChain(t, l, 10, 20, 30, 40)
	if got := l.ChainLen(); got != 4 {
		t.Fatalf("ChainLen=%d want 4", got)
	}
	if got := l.ChainHead(); got != 40 {
		t.Fatalf("ChainHead=%d want 40", got)
	}
	if got := l.ChainDeltaWords(); got != 9 {
		t.Fatalf("ChainDeltaWords=%d want 9", got)
	}
	elems, err := l.ResolveChain(newestDelta(t, l))
	if err != nil {
		t.Fatalf("ResolveChain: %v", err)
	}
	want := []uint64{10, 20, 30, 40}
	if len(elems) != len(want) {
		t.Fatalf("resolved %d elems, want %d", len(elems), len(want))
	}
	for i, e := range elems {
		if e.ExecIdx != want[i] {
			t.Fatalf("elem %d: execIdx %d want %d", i, e.ExecIdx, want[i])
		}
		if e.Base != (i == 0) {
			t.Fatalf("elem %d: base=%v", i, e.Base)
		}
		p := chainPayload(want[i])
		if len(e.Payload) != len(p) {
			t.Fatalf("elem %d: %d payload words, want %d", i, len(e.Payload), len(p))
		}
		for k := range p {
			if e.Payload[k] != p[k] {
				t.Fatalf("elem %d word %d: %d want %d", i, k, e.Payload[k], p[k])
			}
		}
	}
}

func TestChainAppendsUseExactlyOnePersistentFence(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	pool.ResetStats()
	if _, err := l.AppendChainBase(chainPayload(1), 1); err != nil {
		t.Fatal(err)
	}
	if st := pool.StatsOf(0); st.PersistentFences != 1 || st.Fences != 0 {
		t.Fatalf("base append: %d pfences + %d fences, want 1 + 0",
			st.PersistentFences, st.Fences)
	}
	pool.ResetStats()
	if _, err := l.AppendDelta(chainPayload(2), 2); err != nil {
		t.Fatal(err)
	}
	if st := pool.StatsOf(0); st.PersistentFences != 1 || st.Fences != 0 {
		t.Fatalf("delta append: %d pfences + %d fences, want 1 + 0",
			st.PersistentFences, st.Fences)
	}
}

func TestAppendDeltaRequiresLiveChain(t *testing.T) {
	_, l := newLog(t, 64, 4)
	if _, err := l.AppendDelta(chainPayload(1), 1); err == nil {
		t.Fatal("AppendDelta without a base succeeded")
	}
	buildChain(t, l, 10, 20)
	// Non-advancing execIdx must be rejected.
	if _, err := l.AppendDelta(chainPayload(20), 20); err == nil {
		t.Fatal("AppendDelta at the chain head index succeeded")
	}
	if _, err := l.AppendDelta(chainPayload(15), 15); err == nil {
		t.Fatal("AppendDelta behind the chain head succeeded")
	}
}

func TestChainSurvivesCrashAndReopen(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	for i := 1; i <= 6; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	buildChain(t, l, 6, 8, 10)
	// Delta cuts truncate fully: the chain stays reachable through body
	// back-references alone.
	if err := l.Truncate(l.NextSeq() - 2); err != nil {
		t.Fatalf("Truncate below chain head: %v", err)
	}
	base := l.Base()
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.ChainLen(); got != 3 {
		t.Fatalf("reopened ChainLen=%d want 3", got)
	}
	if got := l2.ChainHead(); got != 10 {
		t.Fatalf("reopened ChainHead=%d want 10", got)
	}
	elems, err := l2.ResolveChain(newestDelta(t, l2))
	if err != nil {
		t.Fatalf("ResolveChain after reopen: %v", err)
	}
	if len(elems) != 3 || !elems[0].Base || elems[2].ExecIdx != 10 {
		t.Fatalf("reopened chain resolved wrong: %+v", elems)
	}
	// The chain keeps extending after recovery.
	if _, err := l2.AppendDelta(chainPayload(12), 12); err != nil {
		t.Fatalf("AppendDelta after reopen: %v", err)
	}
	if got := l2.ChainLen(); got != 4 {
		t.Fatalf("post-reopen extend: ChainLen=%d want 4", got)
	}
}

func TestTruncateRefusesToOrphanChain(t *testing.T) {
	_, l := newLog(t, 64, 4)
	for i := 1; i <= 4; i++ {
		if _, err := l.Append([]spec.Op{op(uint64(i), uint64(i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	buildChain(t, l, 4, 6)
	head := l.NextSeq() - 1 // the newest delta's seq
	if err := l.Truncate(head); err == nil {
		t.Fatal("Truncate at the chain record succeeded")
	}
	if err := l.Truncate(head - 1); err != nil {
		t.Fatalf("Truncate below the chain record: %v", err)
	}
	if l.ChainLen() != 2 {
		t.Fatalf("truncate disturbed the chain: len=%d", l.ChainLen())
	}
}

func TestAppendSnapshotSupersedesChain(t *testing.T) {
	_, l := newLog(t, 64, 4)
	buildChain(t, l, 2, 4, 6)
	if _, err := l.AppendSnapshot([]uint64{1, 2, 3}, 8); err != nil {
		t.Fatal(err)
	}
	if got := l.ChainLen(); got != 0 {
		t.Fatalf("chain survived a full snapshot: len=%d", got)
	}
	if got := l.ChainHead(); got != 0 {
		t.Fatalf("ChainHead=%d after supersede, want 0", got)
	}
	// The superseded regions are reusable now.
	if len(l.chainPool) == 0 {
		t.Fatal("superseded chain regions were not recycled")
	}
}

func TestChainBaseRecyclesOldRegions(t *testing.T) {
	_, l := newLog(t, 256, 4)
	buildChain(t, l, 2, 4, 6)
	oldAddrs := map[pmem.Addr]bool{}
	for _, c := range l.chain {
		oldAddrs[c.addr] = true
	}
	// A fresh base supersedes the chain; its regions go to the free list
	// and subsequent cuts of similar size reuse them instead of growing
	// the pool.
	buildChain(t, l, 8, 10, 12)
	reused := 0
	for _, c := range l.chain {
		if oldAddrs[c.addr] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no region of the superseded chain was reused")
	}
}

func TestCrashBetweenBaseAndFirstDelta(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	if _, err := l.AppendChainBase(chainPayload(5), 5); err != nil {
		t.Fatal(err)
	}
	base := l.Base()
	pool.Crash(pmem.DropAll) // crash before any delta was cut
	l2, err := Open(pool, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.ChainLen(); got != 1 {
		t.Fatalf("ChainLen=%d want 1 (base only)", got)
	}
	elems, err := l2.ResolveChain(newestDelta(t, l2))
	if err != nil || len(elems) != 1 || !elems[0].Base {
		t.Fatalf("base-only chain resolved wrong: %v %+v", err, elems)
	}
	if _, err := l2.AppendDelta(chainPayload(7), 7); err != nil {
		t.Fatalf("extending a recovered base-only chain: %v", err)
	}
}

// TestCorruptPredecessorBreaksResolutionNotProbe pins the split between
// slot status and chain status: damaging a PREDECESSOR body leaves the
// newest record probing SlotOK (its own checksum holds) but makes the
// chain unresolvable — Open degrades to an empty chain and the scrubber
// reports ChainBad.
func TestCorruptPredecessorBreaksResolutionNotProbe(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	buildChain(t, l, 2, 4, 6)
	// The delta-cut shape: only the newest chain record stays in the
	// log; predecessors are reachable through body back-refs alone.
	if err := l.Truncate(l.NextSeq() - 2); err != nil {
		t.Fatal(err)
	}
	baseAddr := l.chain[0].addr
	corrupt(pool, baseAddr+pmem.Addr(cbHdrWords*pmem.WordSize), ^uint64(0))
	pool.Crash(pmem.KeepAll)

	head := newestDelta(t, l)
	if _, st := l.probeSlot(head.Seq, l.durableReader()); st != SlotOK {
		t.Fatalf("head record probes %v, want ok (damage is upstream)", st)
	}
	if _, err := l.ResolveChain(head); err == nil {
		t.Fatal("chain with a corrupt base resolved")
	}
	res := l.Scrub()
	if !res.ChainBad || !res.Faulty() {
		t.Fatalf("scrub missed the broken chain: %+v", res)
	}

	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 1, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.ChainLen(); got != 0 {
		t.Fatalf("unresolvable chain rebuilt with len %d", got)
	}
	// The log stays usable: the next cut starts a fresh base.
	if _, err := l2.AppendChainBase(chainPayload(8), 8); err != nil {
		t.Fatalf("fresh base after chain damage: %v", err)
	}
}

// TestTornDeltaBodyIsInvisible corrupts the NEWEST chain body: the head
// record's own body checksum fails, so the record is treated as never
// appended (SlotBadDelta) and the chain falls back to its predecessor.
func TestTornDeltaBodyIsInvisible(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	buildChain(t, l, 2, 4, 6)
	tail := l.chain[len(l.chain)-1]
	corrupt(pool, tail.addr+pmem.Addr((tail.words-1)*pmem.WordSize), ^uint64(0))
	pool.Crash(pmem.KeepAll)
	if _, st := l.probeSlot(l.NextSeq()-1, l.durableReader()); st != SlotBadDelta {
		t.Fatalf("torn delta body probes %v, want bad-delta", st)
	}
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 1, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	// scan stops at the torn record; the chain rebuilds from the record
	// before it (execIdx 4).
	if got := l2.ChainHead(); got != 4 {
		t.Fatalf("chain head after torn tail: %d want 4", got)
	}
	if got := l2.ChainLen(); got != 2 {
		t.Fatalf("chain len after torn tail: %d want 2", got)
	}
}

// TestFlippedBackRefRejected flips the prevAddr word of the newest
// body. The flip is inside the checksummed frame, so the head record
// itself must fail verification — a forged back-reference cannot
// survive, let alone redirect the chain.
func TestFlippedBackRefRejected(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	buildChain(t, l, 2, 4, 6)
	tail := l.chain[len(l.chain)-1]
	cur := pool.DurableWord(tail.addr + pmem.Addr(cbPrevAddr*pmem.WordSize))
	corrupt(pool, tail.addr+pmem.Addr(cbPrevAddr*pmem.WordSize), cur^(1<<13))
	pool.Crash(pmem.KeepAll)
	if _, st := l.probeSlot(l.NextSeq()-1, l.durableReader()); st != SlotBadDelta {
		t.Fatalf("flipped back-ref probes %v, want bad-delta", st)
	}
}

// TestChainBodyWrittenInTwoParts pins appendChainBody's split write:
// the frame and the caller's payload go to NVM as two stores and the
// checksum runs across both, so the durable body and its checksum must
// equal the frame and payload concatenated — for a base and for a delta
// whose frame pins the base's sum, with payloads that share the frame's
// cache line and span several more.
func TestChainBodyWrittenInTwoParts(t *testing.T) {
	pool, l := newLog(t, 64, 4)
	payload := func(ix uint64, n int) []uint64 {
		p := make([]uint64, n)
		for i := range p {
			p[i] = ix<<32 | uint64(i)
		}
		return p
	}
	base, delta := payload(10, 21), payload(20, 3)
	if _, err := l.AppendChainBase(base, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendDelta(delta, 20); err != nil {
		t.Fatal(err)
	}
	pool.Crash(pmem.DropAll)
	l2, err := Open(pool, 0, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	links, bodies, err := l2.resolveLinks(newestDelta(t, l2), l2.cachedReader())
	if err != nil {
		t.Fatal(err)
	}
	b := links[0]
	wants := [][]uint64{
		append([]uint64{chainBodyBase, 10, 0, 0, 0}, base...),
		append([]uint64{chainBodyDelta, 20, uint64(b.addr), uint64(b.words), b.sum}, delta...),
	}
	for i, want := range wants {
		if len(bodies[i]) != len(want) {
			t.Fatalf("link %d: %d durable words, want %d", i, len(bodies[i]), len(want))
		}
		for k := range want {
			if bodies[i][k] != want[k] {
				t.Fatalf("link %d word %d: %#x, want %#x", i, k, bodies[i][k], want[k])
			}
		}
		if sum := checksum(want); links[i].sum != sum || l.chain[i].sum != sum {
			t.Fatalf("link %d: durable sum %#x, appended %#x, concatenated form %#x",
				i, links[i].sum, l.chain[i].sum, sum)
		}
	}
}
