package core

import (
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestAdoptionAcrossCompactionCut audits the published slot against
// compaction deterministically (the style of overflow_pressure_test):
// the slot's p.idx is an execution index, and compaction recycles the
// nodes behind a cut — so the test constructs the exact interleaving
// where a reader adopts a publication that a concurrent compaction has
// ALREADY cut past, and proves it safe:
//
//  1. p0 performs 40 updates; p1's read catches up and publishes the
//     slot at index 40 (a catch-up past publishMinLag).
//  2. p0 performs update 41 (so p2's validated node sits one past the
//     publication and its adoption leaves a remainder walk).
//  3. p2's read walks, decides to adopt, and is suspended at
//     PointSlotCopy — HOLDING the slot, copy not yet done.
//  4. p0 runs updates 42..45; its compaction cadence fires at 45,
//     cutting the trace to a base at 45 and retiring the nodes behind
//     it. The cut's republish hits the held slot and falls back, so
//     the slot still carries the PRE-CUT index 40.
//  5. p2 resumes: it completes the adoption of the stale publication
//     and walks the remainder from its validated node (41).
//
// Safety rests on two facts the test pins: the slot holds a VALUE copy
// of a state (never node pointers), so a cut can never dangle it; and
// p2's published walk floor (its view index at the read's start) keeps
// reclamation away from every node its walk — and the adoption
// remainder — can still dereference. p2 must return exactly 41 (the
// counter at its validated node) and its next read must land on the
// post-cut base (45), proving the stale adoption neither tears nor
// sticks.
func TestAdoptionAcrossCompactionCut(t *testing.T) {
	const cut = 45 // p0's compaction cadence; also its total updates
	ctl := sched.NewController()
	pool := pmem.New(1<<24, ctl)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 3, ReadFastPath: true, CompactEvery: cut,
		LogCapacity: 1 << 10, Gate: ctl,
		// A fixed threshold keeps the adoption decision — and with it
		// the gate-point schedule — independent of timing samples; a
		// single stripe makes the cut's republish and p2's adoption
		// contend on the SAME slot, which is the interleaving under
		// audit.
		AdoptPolicy: AdoptPolicy{FixedMinLag: 16},
		SlotStripes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < cut; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				panic(err)
			}
		}
	})
	var got1, got2 uint64
	done1 := ctl.Spawn(1, func() { got1 = in.Handle(1).Read(objects.CounterGet) })
	done2 := ctl.Spawn(2, func() { got2 = in.Handle(2).Read(objects.CounterGet) })

	// 1: forty updates, then p1 catches up and publishes at 40.
	for i := 0; i < 40; i++ {
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("p0 ended early at update %d", i+1)
		}
	}
	ctl.RunToCompletion(1)
	if out := <-done1; out != nil {
		t.Fatalf("p1 read failed: %v", out)
	}
	if got1 != 40 {
		t.Fatalf("p1 read %d, want 40", got1)
	}
	if in.pubs[0].idx != 40 {
		t.Fatalf("slot published at %d, want 40", in.pubs[0].idx)
	}

	// 2: one more update moves the frontier one past the publication.
	if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
		t.Fatal("p0 ended before update 41")
	}

	// 3: p2 walks, elects adoption, and is parked holding the slot.
	if _, ok := ctl.RunUntil(2, sched.AtPoint(PointSlotCopy)); !ok {
		t.Fatal("p2 never reached the adoption copy (slot not elected?)")
	}

	// 4: p0 finishes; its 45th update compacts, cutting the trace. The
	// republish at the cut must skip (slot held) — the slot keeps the
	// pre-cut index.
	ctl.RunToCompletion(0)
	if out := <-done0; out != nil {
		t.Fatalf("p0 failed: %v", out)
	}
	base := in.tr.Tail(0)
	for ; base != nil && base.Kind == trace.KindUpdate; base = base.Next() {
	}
	if base == nil || base.Idx() != cut {
		t.Fatalf("no compaction base at %d reachable from the tail", cut)
	}
	if in.pubs[0].idx != 40 {
		t.Fatalf("slot moved to %d during the cut despite being held; want stale 40", in.pubs[0].idx)
	}

	// 5: p2 completes the stale adoption and the remainder walk.
	ctl.RunToCompletion(2)
	if out := <-done2; out != nil {
		t.Fatalf("p2 failed adopting across the cut: %v", out)
	}
	if got2 != 41 {
		t.Fatalf("p2 read %d, want 41 (its validated node)", got2)
	}
	h2 := in.Handle(2)
	if h2.adoptions.Load() == 0 {
		t.Fatal("p2 never adopted (scenario did not exercise the stale slot)")
	}
	if h2.viewIdx != 41 {
		t.Fatalf("p2 view at %d after adoption + remainder, want 41", h2.viewIdx)
	}
	ctl.KillAll()

	// The stale adoption must not stick: a fresh read from p2 crosses
	// the cut, restores from the base at 45 and sees every update.
	if got := h2.Read(objects.CounterGet); got != cut {
		t.Fatalf("p2 post-cut read %d, want %d", got, cut)
	}
	if h2.viewIdx != cut {
		t.Fatalf("p2 view at %d, want %d (base restore)", h2.viewIdx, cut)
	}
}
