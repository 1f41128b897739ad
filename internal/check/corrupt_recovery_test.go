package check

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// These tests drive whole-image recovery (core.Recover over every
// per-process plog) against adversarially damaged durable images:
// random word corruption, torn snapshot-region counts, and clobbered
// root slots. Unlike the crash-injection harness (which validates
// durable linearizability for LEGAL crash outcomes), corruption here is
// beyond what a crash can produce, so the contract is weaker but
// absolute: recovery must return an error or a consistent instance —
// it must never panic.

// buildCrashedImage runs a compacting instance (so snapshot records and
// truncated logs exist), then crashes keeping all in-flight lines.
func buildCrashedImage(t *testing.T, sp spec.Spec) *pmem.Pool {
	t.Helper()
	pool := pmem.New(1<<22, nil)
	in, err := core.New(pool, sp, core.Config{
		NProcs: 2, LogCapacity: 128, LocalViews: true, CompactEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 2; pid++ {
		h := in.Handle(pid)
		for i := 0; i < 40; i++ {
			k := uint64(pid*100 + i%8 + 1)
			if _, _, err := h.Update(objects.MapPut, k, k*3); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool.Crash(pmem.KeepAll)
	return pool
}

// durablyCorrupt overwrites one durable word of the image.
func durablyCorrupt(pool *pmem.Pool, addr pmem.Addr, val uint64) {
	pool.Store(pmem.RootSystemPID, addr, val)
	pool.Persist(pmem.RootSystemPID, addr, pmem.WordSize)
	pool.Crash(pmem.DropAll)
}

// recoverGuarded runs core.Recover and converts panics into test
// failures; it returns whether recovery succeeded.
func recoverGuarded(t *testing.T, pool *pmem.Pool, sp spec.Spec, label string) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: recovery panicked: %v", label, r)
		}
	}()
	in, _, err := core.Recover(pool, sp, core.Config{})
	if err != nil {
		return false
	}
	// A successful recovery must produce a servable object.
	in.Handle(0).Read(objects.MapLen)
	return true
}

// TestRecoveryFuzzRandomCorruption sprays durable word corruption over
// crashed images — hitting logs, snapshot regions and the root table —
// and requires recovery to error or succeed, never panic.
func TestRecoveryFuzzRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		pool := buildCrashedImage(t, objects.MapSpec{})
		for n := 1 + rng.Intn(5); n > 0; n-- {
			w := rng.Intn(pool.Size() / (8 * pmem.WordSize))
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
			durablyCorrupt(pool, addr, val)
		}
		recoverGuarded(t, pool, objects.MapSpec{}, "random corruption")
	}
}

// TestRecoveryClobberedRootSlots points the per-process log roots at
// garbage (out of bounds, unaligned, mid-pool) — recovery must reject
// the image, not chase wild pointers.
func TestRecoveryClobberedRootSlots(t *testing.T) {
	for _, bad := range []uint64{^uint64(0), 3, 1 << 60, uint64(1 << 21)} {
		pool := buildCrashedImage(t, objects.MapSpec{})
		// Root slot 8 holds process 0's log base (core's rootLogBase).
		durablyCorrupt(pool, pmem.Addr(8*pmem.WordSize), bad)
		if recoverGuarded(t, pool, objects.MapSpec{}, "clobbered root") {
			// Mid-pool pointers may land on non-magic words and already
			// fail; succeeding is only acceptable if the pointer happens
			// to frame a valid log, which none of these values do.
			t.Fatalf("root=%#x: recovery accepted a wild log pointer", bad)
		}
	}
}

// TestRecoveryTornOverflowFallsBack builds a deterministic image in
// which one record spilled to its log's overflow ring (a process is
// stalled between order and persist, so the next updater's record
// carries two ops — past the inline budget of 1), then corrupts the
// spilled record's overflow chunk. Whole-image recovery must fall back
// to the records before the tear: it recovers exactly the prefix whose
// records still verify, serves reads from it, and never panics.
func TestRecoveryTornOverflowFallsBack(t *testing.T) {
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := core.New(pool, objects.MapSpec{}, core.Config{
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p1 orders an update but stalls before persisting it.
	ctl.Spawn(1, func() { in.Handle(1).Update(objects.MapPut, 100, 1) })
	if _, ok := ctl.RunUntil(1, sched.AtPoint(core.PointOrdered)); !ok {
		t.Fatal("p1 finished early")
	}
	// p0's first update helps p1's stalled op: a 2-op record, which the
	// inline budget of 1 forces through the overflow ring. The following
	// updates see p0's own op available, so they stay inline.
	done := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < 4; i++ {
			if _, _, err := h.Update(objects.MapPut, uint64(i+1), uint64(10*(i+1))); err != nil {
				panic(err)
			}
		}
	})
	ctl.RunToCompletion(0)
	<-done
	ctl.KillAll()

	recs := in.Log(0).Records()
	if len(recs) != 4 || !recs[0].Overflow || recs[0].Kind != plog.KindOps {
		t.Fatalf("setup: p0 log %+v, want 4 records with the first spilled", recs)
	}
	if recs[1].Overflow || recs[2].Overflow || recs[3].Overflow {
		t.Fatalf("setup: later records unexpectedly spilled: %+v", recs)
	}
	off, _, _ := recs[0].OverflowSpan()
	ovfBase, _ := in.Log(0).OverflowRegion()
	pool.SetGate(nil)
	pool.Crash(pmem.KeepAll) // everything in flight lands; image is intact
	durablyCorrupt(pool, ovfBase+pmem.Addr(off*pmem.WordSize), 0xBADC0DE)

	in2, rep, err := core.Recover(pool, objects.MapSpec{}, core.Config{})
	if err != nil {
		t.Fatalf("recovery after torn overflow: %v", err)
	}
	// The spilled record held indices 1 (p1's helped op) and 2 (p0's
	// first own op); tearing its chunk kills p0's whole log prefix, so
	// nothing is recoverable: index 1 exists in no other log.
	if rep.LastIdx != 0 || len(rep.Ordered) != 0 {
		t.Fatalf("recovered %d ops past a torn overflow chunk: %+v", rep.LastIdx, rep.Ordered)
	}
	if got := in2.Handle(0).Read(objects.MapLen); got != 0 {
		t.Fatalf("post-recovery map has %d entries, want 0", got)
	}
}

// TestRecoveryTornOverflowKeepsPrefix is the counterpart with the tear
// in a LATER spilled record: a second stall forces p0's fourth record
// through the ring; corrupting that chunk must preserve the three
// records before it.
func TestRecoveryTornOverflowKeepsPrefix(t *testing.T) {
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := core.New(pool, objects.MapSpec{}, core.Config{
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p0 performs three clean updates (indices 1..3, all inline) and a
	// fourth one; the controller holds it after the third so p2 can
	// stall mid-order first, making the fourth record spill.
	done := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < 4; i++ {
			k, v := uint64(i+1), uint64(10*(i+1))
			if i == 3 {
				k, v = 50, 500
			}
			if _, _, err := h.Update(objects.MapPut, k, v); err != nil {
				panic(err)
			}
		}
	})
	for i := 0; i < 3; i++ {
		if _, ok := ctl.RunPast(0, sched.AtPoint(core.PointReturn)); !ok {
			t.Fatal("p0 finished early")
		}
	}
	// p2 orders index 4 and stalls; p0's fourth update (index 5) helps
	// it and spills past the inline budget of 1.
	ctl.Spawn(2, func() { in.Handle(2).Update(objects.MapPut, 200, 2) })
	if _, ok := ctl.RunUntil(2, sched.AtPoint(core.PointOrdered)); !ok {
		t.Fatal("p2 finished early")
	}
	ctl.RunToCompletion(0)
	<-done
	ctl.KillAll()

	recs := in.Log(0).Records()
	if len(recs) != 4 || !recs[3].Overflow {
		t.Fatalf("setup: p0 log %+v, want 4 records with the last spilled", recs)
	}
	off, _, _ := recs[3].OverflowSpan()
	ovfBase, _ := in.Log(0).OverflowRegion()
	pool.SetGate(nil)
	pool.Crash(pmem.KeepAll)
	durablyCorrupt(pool, ovfBase+pmem.Addr(off*pmem.WordSize), 0xBADC0DE)

	in2, rep, err := core.Recover(pool, objects.MapSpec{}, core.Config{})
	if err != nil {
		t.Fatalf("recovery after torn overflow: %v", err)
	}
	if rep.LastIdx != 3 {
		t.Fatalf("recovered LastIdx %d, want the 3-op prefix before the tear", rep.LastIdx)
	}
	h := in2.Handle(0)
	for i := 1; i <= 3; i++ {
		if got := h.Read(objects.MapGet, uint64(i)); got != uint64(10*i) {
			t.Fatalf("recovered map[%d] = %d, want %d", i, got, 10*i)
		}
	}
	if got := h.Read(objects.MapGet, 50); got == 500 {
		t.Fatal("op after the torn record survived recovery")
	}
}

// TestRecoveryUncorruptedBaseline pins that the corruption tests fail
// for the right reason: the same image recovers fine untouched, with
// the full map contents.
func TestRecoveryUncorruptedBaseline(t *testing.T) {
	pool := buildCrashedImage(t, objects.MapSpec{})
	in, rep, err := core.Recover(pool, objects.MapSpec{}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIdx != 80 {
		t.Fatalf("recovered %d ops, want 80", rep.LastIdx)
	}
	h := in.Handle(0)
	if got := h.Read(objects.MapGet, 1); got != 3 {
		t.Fatalf("recovered map[1] = %d, want 3", got)
	}
}

// buildCrashedChainImage runs a single-process delta-compacting
// instance over distinct keys until a live chain (base + deltas)
// exists, then crashes keeping every in-flight line. It returns the
// pool and the newest delta record (the chain head) for fault
// targeting. maxOps is the instance's LogMaxOps (0 = default).
func buildCrashedChainImage(t *testing.T, maxOps int) (*pmem.Pool, plog.Record) {
	t.Helper()
	pool := pmem.New(1<<22, nil)
	in, err := core.New(pool, objects.MapSpec{}, core.Config{
		NProcs: 1, LogCapacity: 128, DeltaSnapshots: true, CompactEvery: 8,
		LogMaxOps: maxOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 32; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i+1), uint64(3*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if cl := in.Log(0).ChainLen(); cl < 2 {
		t.Fatalf("setup: chain has %d links, want base + deltas", cl)
	}
	var head plog.Record
	found := false
	for _, r := range in.Log(0).Records() {
		if r.Kind == plog.KindDelta {
			head, found = r, true
		}
	}
	if !found {
		t.Fatal("setup: no live delta record")
	}
	pool.Crash(pmem.KeepAll)
	return pool, head
}

// TestRecoveryTornChainPredecessorBody corrupts a payload word inside
// the chain head's PREDECESSOR body — damage the head record's own
// checksum cannot see, only the back-reference checksum carried in the
// head body can. Strict whole-image recovery must refuse with
// snapshot-corruption evidence (the chain no longer folds, so the
// truncated prefix is unreconstructible); salvaging recovery must
// quarantine with the same taxonomy and return to service via
// Recreate. Never a panic, never a silently wrong state.
func TestRecoveryTornChainPredecessorBody(t *testing.T) {
	pool, head := buildCrashedChainImage(t, 0)
	// Body[2] is the back-reference address of the predecessor body
	// (validated at resolve time); smash a word inside that region,
	// past its 5-word frame header.
	durablyCorrupt(pool, pmem.Addr(head.Body[2])+pmem.Addr(5*pmem.WordSize), ^uint64(0))
	if _, _, err := core.Recover(pool, objects.MapSpec{}, core.Config{}); !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Fatalf("strict recovery over a torn chain predecessor: err=%v, want ErrSnapshotCorrupt", err)
	}

	pool2, head2 := buildCrashedChainImage(t, 0)
	durablyCorrupt(pool2, pmem.Addr(head2.Body[2])+pmem.Addr(5*pmem.WordSize), ^uint64(0))
	in, _, err := core.Recover(pool2, objects.MapSpec{}, core.Config{Salvage: true})
	if err != nil {
		t.Fatalf("salvaging recovery must absorb chain damage, got: %v", err)
	}
	if m := in.Health().Mode; m != core.ModeQuarantined {
		t.Fatalf("health after unfoldable chain = %v, want quarantined", m)
	}
	if reason := in.Health().Reason; !errors.Is(reason, core.ErrSnapshotCorrupt) {
		t.Fatalf("quarantine reason %v lacks snapshot-corruption evidence", reason)
	}
	if err := in.Recreate(); err != nil {
		t.Fatalf("Recreate after chain quarantine: %v", err)
	}
	if _, _, err := in.Handle(0).Update(objects.MapPut, 1000, 1); err != nil {
		t.Fatalf("update after Recreate: %v", err)
	}
}

// TestRecreateKeepsLogMaxOps: Recreate must rebuild the logs with the
// per-record op bound of the logs it replaces, as it does with their
// capacity and inline budget. With the bound dropped to NProcs a
// recreated server instance admits one op per batch and pays a fence
// per request, with no error to say so.
func TestRecreateKeepsLogMaxOps(t *testing.T) {
	const maxOps = 17
	pool, head := buildCrashedChainImage(t, maxOps)
	durablyCorrupt(pool, pmem.Addr(head.Body[2])+pmem.Addr(5*pmem.WordSize), ^uint64(0))
	in, _, err := core.Recover(pool, objects.MapSpec{}, core.Config{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := in.Health().Mode; m != core.ModeQuarantined {
		t.Fatalf("setup: health %v, want quarantined", m)
	}
	if got := in.Log(0).MaxOps(); got != maxOps {
		t.Fatalf("setup: recovered log MaxOps = %d, want %d", got, maxOps)
	}
	if err := in.Recreate(); err != nil {
		t.Fatal(err)
	}
	if got := in.Log(0).MaxOps(); got != maxOps {
		t.Fatalf("MaxOps after Recreate = %d, want %d", got, maxOps)
	}
	b := in.Handle(0).NewBatch()
	pool.ResetStats()
	for i := 0; i < maxOps; i++ { // NProcs 1: no helping-tail headroom
		if _, _, err := b.Stage(objects.MapPut, uint64(2000+i), 1); err != nil {
			t.Fatalf("stage %d of %d after Recreate: %v", i+1, maxOps, err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if pf := pool.TotalStats().PersistentFences; pf != 1 {
		t.Fatalf("%d-op batch after Recreate took %d pfences, want 1", maxOps, pf)
	}
}

// TestRecoveryFlippedChainBackRef flips one bit of the back-reference
// word INSIDE the chain head's checksummed body on media. The body
// checksum fails, so the head record reads as never appended — the
// forged pointer is never followed — and with it the truncated log
// loses its only coverage. Strict recovery must report exactly that
// (truncation without a readable covering record) instead of silently
// recovering nothing; salvage must quarantine on the same evidence.
func TestRecoveryFlippedChainBackRef(t *testing.T) {
	pool, head := buildCrashedChainImage(t, 0)
	addr, _, ok := head.ChainBody()
	if !ok {
		t.Fatal("chain head without a body region")
	}
	cur := pool.DurableWord(addr + pmem.Addr(2*pmem.WordSize))
	durablyCorrupt(pool, addr+pmem.Addr(2*pmem.WordSize), cur^(1<<17))
	if _, _, err := core.Recover(pool, objects.MapSpec{}, core.Config{}); !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Fatalf("strict recovery over a flipped back-reference: err=%v, want ErrSnapshotCorrupt", err)
	}

	pool2, head2 := buildCrashedChainImage(t, 0)
	addr2, _, _ := head2.ChainBody()
	cur2 := pool2.DurableWord(addr2 + pmem.Addr(2*pmem.WordSize))
	durablyCorrupt(pool2, addr2+pmem.Addr(2*pmem.WordSize), cur2^(1<<17))
	in, _, err := core.Recover(pool2, objects.MapSpec{}, core.Config{Salvage: true})
	if err != nil {
		t.Fatalf("salvaging recovery must absorb a broken chain head, got: %v", err)
	}
	if m := in.Health().Mode; m != core.ModeQuarantined {
		t.Fatalf("health after lost chain coverage = %v, want quarantined", m)
	}
}

// TestRecoveryChainBaseBeforeFirstDelta crashes in the window between
// a chain-base cut and the first delta: the live chain is exactly one
// base link. Recovery must restore the full state from the base alone,
// with every update detectable — the base is self-contained coverage,
// not an incomplete chain.
func TestRecoveryChainBaseBeforeFirstDelta(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := core.New(pool, objects.MapSpec{}, core.Config{
		NProcs: 1, LogCapacity: 128, DeltaSnapshots: true, CompactEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	// Exactly one cadence: the 8th update triggers the first cut, a
	// fresh base; the crash lands before any delta is appended.
	for i := 0; i < 8; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i+1), uint64(3*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if cl := in.Log(0).ChainLen(); cl != 1 {
		t.Fatalf("setup: chain has %d links, want the lone base", cl)
	}
	pool.Crash(pmem.KeepAll)
	in2, rep, err := core.Recover(pool, objects.MapSpec{}, core.Config{DeltaSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseIdx != 8 {
		t.Fatalf("recovered BaseIdx %d, want 8 (the base cut)", rep.BaseIdx)
	}
	h2 := in2.Handle(0)
	for i := 1; i <= 8; i++ {
		if got := h2.Read(objects.MapGet, uint64(i)); got != uint64(3*i) {
			t.Fatalf("recovered map[%d] = %d, want %d", i, got, 3*i)
		}
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if _, ok := rep.WasLinearized(spec.MakeID(0, seq)); !ok {
			t.Fatalf("op %d vanished across the base-only chain", seq)
		}
	}
}

// TestRecoveryFuzzRandomCorruptionDeltaChains is the delta-chain leg
// of the random-corruption fuzz: sprayed durable word corruption over
// an image whose logs hold live chains (record slots, chain bodies and
// back-references alike) must leave recovery erroring or returning a
// consistent, servable instance — never panicking, never chasing a
// forged chain pointer out of bounds.
func TestRecoveryFuzzRandomCorruptionDeltaChains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		pool, _ := buildCrashedChainImage(t, 0)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			w := rng.Intn(pool.Size() / (8 * pmem.WordSize))
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
			durablyCorrupt(pool, addr, val)
		}
		recoverGuarded(t, pool, objects.MapSpec{}, "delta-chain corruption")
	}
}
