package core

import (
	"math/rand"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestDeltaCompactionRoundTrip drives a map through enough updates for
// many delta cuts (and at least one collapse), crashes, and requires
// recovery to fold base + deltas + live records back into exactly the
// pre-crash state, with every completed update still detectable.
func TestDeltaCompactionRoundTrip(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 2, LogCapacity: 256, CompactEvery: 8, MaxDeltaChain: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	model := map[uint64]uint64{}
	var ids []uint64
	for i := 0; i < 200; i++ {
		h := in.Handle(i % 2)
		k := uint64(rng.Intn(64))
		var id uint64
		if rng.Intn(5) == 0 {
			_, id, err = h.Update(objects.MapDel, k)
			delete(model, k)
		} else {
			v := uint64(i + 1)
			_, id, err = h.Update(objects.MapPut, k, v)
			model[k] = v
		}
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	st := in.CompactionStats()
	if st.Bases == 0 || st.Deltas == 0 {
		t.Fatalf("expected base and delta cuts, got %+v", st)
	}
	if st.Collapses == 0 {
		t.Fatalf("MaxDeltaChain 4 over %d cuts never collapsed: %+v", st.Bases+st.Deltas, st)
	}
	if st.SnapshotWords >= st.FullEquivWords {
		t.Fatalf("delta cuts wrote %d words vs %d full-equivalent: no savings",
			st.SnapshotWords, st.FullEquivWords)
	}

	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.MapSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseIdx == 0 {
		t.Fatal("recovery found no compaction record to restart from")
	}
	h := in2.Handle(0)
	for k := uint64(0); k < 64; k++ {
		want := spec.RetMissing
		if v, ok := model[k]; ok {
			want = v
		}
		if got := h.Read(objects.MapGet, k); got != want {
			t.Fatalf("key %d: recovered %d, want %d", k, got, want)
		}
	}
	for _, id := range ids {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("op %#x vanished across delta compaction", id)
		}
	}

	// The recovered instance keeps cutting — updates must keep landing.
	for i := 0; i < 40; i++ {
		if _, _, err := in2.Handle(i%2).Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatalf("post-recovery update %d: %v", i, err)
		}
	}
}

// TestDeltaCompactionPfences pins the fence bill under delta-chain
// compaction: N updates at cadence C cost exactly N + 2*cuts persistent
// fences (each cut, base or delta, is one chain append plus one
// truncate), and reads stay at zero.
func TestDeltaCompactionPfences(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 256, CompactEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	h := in.Handle(0)
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i%8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := in.CompactionStats()
	cuts := st.Bases + st.Deltas
	if cuts != n/4 {
		t.Fatalf("%d cuts at cadence 4 over %d updates, want %d", cuts, n, n/4)
	}
	if pf := pool.StatsOf(0).PersistentFences; pf != n+2*cuts {
		t.Fatalf("%d updates + %d cuts cost %d pfences, want %d", n, cuts, pf, n+2*cuts)
	}
	before := pool.StatsOf(0).PersistentFences
	for i := 0; i < 50; i++ {
		h.Read(objects.MapGet, uint64(i%8))
	}
	if pf := pool.StatsOf(0).PersistentFences; pf != before {
		t.Fatalf("reads cost %d pfences", pf-before)
	}
}

// TestDeltaChainCollapseCadence pins the collapse policy: with
// MaxDeltaChain M, every M-th cut lays a fresh base, so the chain never
// exceeds M links and the base/delta mix over K cuts is exactly K/M vs
// the rest.
func TestDeltaChainCollapseCadence(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	const m = 3
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 256, CompactEvery: 4, MaxDeltaChain: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 120; i++ {
		// Distinct keys: the state outgrows any delta, so the size-based
		// collapse never preempts the length-based one under test.
		if _, _, err := h.Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if cl := in.Log(0).ChainLen(); cl > m {
			t.Fatalf("chain grew to %d links, cap %d", cl, m)
		}
	}
	st := in.CompactionStats()
	if cuts := st.Bases + st.Deltas; cuts != 30 {
		t.Fatalf("%d cuts, want 30", cuts)
	}
	if st.Bases != 10 || st.Deltas != 20 {
		t.Fatalf("cut mix bases=%d deltas=%d, want 10/20", st.Bases, st.Deltas)
	}
	if st.Collapses != st.Bases-1 {
		t.Fatalf("%d collapses for %d bases (first base is fresh)", st.Collapses, st.Bases)
	}
}

// TestSizeAwareCadenceDefault pins cutEvery's adaptive default: with
// DeltaSnapshots and no CompactEvery, the cadence starts at the floor,
// grows with the state, respects the capacity ceiling, and keeps the
// log bounded without any explicit CompactEvery.
func TestSizeAwareCadenceDefault(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 512, DeltaSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	small := h.cutEvery()
	if small < 64 {
		t.Fatalf("empty-state cadence %d below floor 64", small)
	}
	for i := 0; i < 2000; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.cutEvery(); got <= small {
		t.Fatalf("cadence %d did not grow with the state (was %d)", got, small)
	} else if got > 512/4 {
		t.Fatalf("cadence %d above ceiling %d", got, 512/4)
	}
	if st := in.CompactionStats(); st.Bases+st.Deltas == 0 {
		t.Fatal("size-aware cadence never cut")
	}
	if live := in.Log(0).Len(); live > 300 {
		t.Fatalf("log holds %d live records; cadence is not bounding it", live)
	}
}

// TestDeltaFallbackOpReplay pins the universal fallback: an object
// without a DeltaEmitter (queue) still delta-compacts once its state
// outgrows the op window, via verbatim op-replay deltas, and recovery
// refolds them. While the state is still small the oversize guard must
// keep collapsing to bases instead of writing deltas larger than a
// snapshot.
func TestDeltaFallbackOpReplay(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.QueueSpec{}, Config{
		NProcs: 1, LogCapacity: 256, CompactEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 64; i++ {
		if _, _, err := h.Update(objects.QueueEnq, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := in.CompactionStats()
	if st.Bases == 0 {
		t.Fatalf("small-state cuts should have collapsed to bases: %+v", st)
	}
	if st.Deltas == 0 {
		t.Fatalf("op-replay fallback never cut a delta: %+v", st)
	}
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.QueueSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h2 := in2.Handle(0)
	for i := 0; i < 64; i++ {
		got, _, err := h2.Update(objects.QueueDeq)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i+1) {
			t.Fatalf("dequeue %d: got %d", i, got)
		}
	}
}

// TestDeltaWalkCoveredByFloor pins the reclamation floor's cover of
// the delta cut's walk (see Handle.floor). p0 owns a chain with head H
// and a view well above it; p1 updates twice inside p0's delta window
// (H, N0], so two of p1's own nodes lie in it. p0 parks the update that
// will cut a delta over that window right after ordering node N0. p1
// then runs until its first cut lays a base above N0: the splice severs
// N0's segment, and p1 may reuse its own nodes below it once no walk
// floor covers them. p1 parks in its next insert, after drawing its
// node. Then p0 finishes. Its delta must fold to
// the state at N0, and recovery must restore every update. With the
// floor published at the view instead of at H, p1 reuses its oldest
// window node under p0's walk, which stops at the reinitialised node and
// writes a delta without the window's first operation (key 500).
func TestDeltaWalkCoveredByFloor(t *testing.T) {
	const ce = 8
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 2, LogCapacity: 256, CompactEvery: ce, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	var p0, p1 [][2]uint64
	for i := uint64(0); i < ce; i++ {
		p0 = append(p0, [2]uint64{i, i + 1}) // the base cut at ce
	}
	p0 = append(p0, [2]uint64{500, 1}) // the delta window's first op
	for i := uint64(1); i < ce; i++ {
		p0 = append(p0, [2]uint64{100, i})
	}
	for i := uint64(0); i < ce+2; i++ {
		p1 = append(p1, [2]uint64{1000 + i, i + 1})
	}
	run := func(pid int, puts [][2]uint64) <-chan any {
		for _, kv := range puts {
			model[kv[0]] = kv[1]
		}
		return ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			for _, kv := range puts {
				if _, _, err := h.Update(objects.MapPut, kv[0], kv[1]); err != nil {
					panic(err)
				}
			}
		})
	}
	done0, done1 := run(0, p0), run(1, p1)
	step := func(pid, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := ctl.RunPast(pid, sched.AtPoint(PointReturn)); !ok {
				t.Fatalf("p%d finished early", pid)
			}
		}
	}
	const inWindow = 2 // p1's updates inside (H, N0]
	step(0, ce+1)      // base at H = ce, then key 500
	step(1, 1)
	step(0, 1)
	step(1, 1)
	step(0, ce-3) // view at N0-1
	if _, ok := ctl.RunUntil(0, sched.AtPoint(PointOrdered)); !ok {
		t.Fatal("p0 finished early")
	}
	n0 := uint64(2*ce + inWindow)
	step(1, ce-inWindow) // p1's ce-th update splices a base above N0
	if _, ok := ctl.RunUntil(1, sched.AtPoint("trace.read-tail")); !ok {
		t.Fatal("p1 finished early")
	}
	step(0, 1) // p0 cuts its delta
	ctl.RunToCompletion(0)
	if out := <-done0; out != nil {
		t.Fatal(out)
	}

	l := in.Log(0)
	if l.ChainLen() != 2 || l.ChainHead() != n0 {
		t.Fatalf("p0 chain: %d links, head %d; want a delta at %d", l.ChainLen(), l.ChainHead(), n0)
	}
	recs := l.Records()
	seqs, state, _, err := foldBaseCandidate(objects.MapSpec{}, l, recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	st := objects.MapSpec{}.New()
	if err := st.Restore(state); err != nil {
		t.Fatal(err)
	}
	for _, kv := range append(p0, p1[:inWindow]...) {
		if got := st.Read(mkOp(objects.MapGet, kv[0])); got != model[kv[0]] {
			t.Fatalf("p0's delta folds key %d to %d, want %d", kv[0], got, model[kv[0]])
		}
	}
	if n := st.Read(mkOp(objects.MapLen)); n != ce+2+inWindow || seqs[0] != 2*ce || seqs[1] != inWindow {
		t.Fatalf("p0's delta folds to %d keys, seqs %v; want %d keys, seqs [%d %d]",
			n, seqs, ce+2+inWindow, 2*ce, inWindow)
	}

	ctl.RunToCompletion(1)
	if out := <-done1; out != nil {
		t.Fatal(out)
	}
	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.MapSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := in2.Handle(0)
	for k, v := range model {
		if got := h.Read(objects.MapGet, k); got != v {
			t.Fatalf("key %d recovered as %d, want %d", k, got, v)
		}
	}
}

// parkingState parks its process at pointViewRestore on every Restore,
// before the words are read: between a walk that returned a base and
// the view's restore from that base's Snap.
type parkingState struct {
	spec.State
	gate sched.Gate
	pid  int
}

const pointViewRestore = "view.restore"

func (s *parkingState) Restore(w []uint64) error {
	s.gate.Step(s.pid, pointViewRestore)
	return s.State.Restore(w)
}

// TestBaseBodyNotReusedUnderWalker pins the quiescence rule on base
// bodies (Handle.baseSlot). A base node's Snap is a subslice of its
// cutter's base buffer, and a handle catching up restores its view from
// it. p1, a lagging reader, parks after its walk returned p0's first
// base and before restoring from it. p0 then cuts two more bases, the
// second into the buffer behind the first base unless p1's floor keeps
// it. p1's view must come out as the state at the first base. With the
// floor check planted out, the third base overwrites the words p1 is
// about to restore, and p1's view holds the third base's values.
func TestBaseBodyNotReusedUnderWalker(t *testing.T) {
	const ce = 8
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 2, LogCapacity: 256, CompactEvery: ce, MaxDeltaChain: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	h1.view = &parkingState{State: h1.view, gate: ctl, pid: 1}
	// p0 runs on the test goroutine (never spawned, so never parked) and
	// rewrites the same ce keys: the state keeps its size, so a reused
	// buffer would be overwritten in place.
	op := func(i int) spec.Op { return mkOp(objects.MapPut, uint64(i%ce), uint64(i)) }
	upd := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			o := op(i)
			if _, _, err := h0.Update(o.Code, o.Args[:2]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	upd(0, ce) // first base at ce
	done := ctl.Spawn(1, func() { h1.Read(objects.MapLen) })
	if _, ok := ctl.RunUntil(1, sched.AtPoint(pointViewRestore)); !ok {
		t.Fatal("p1 finished without restoring from a base")
	}
	upd(ce, 3*ce) // bases at 2ce and 3ce
	if st := in.CompactionStats(); st.Bases != 3 {
		t.Fatalf("%d base cuts, want 3", st.Bases)
	}
	ctl.RunToCompletion(1)
	if out := <-done; out != nil {
		t.Fatal(out)
	}
	var first []spec.Op
	for i := 0; i < ce; i++ {
		first = append(first, op(i))
	}
	want, _ := spec.Replay(objects.MapSpec{}, first)
	if h1.viewIdx != ce || !spec.Equal(h1.view, want) {
		t.Fatalf("p1 restored %v at index %d, want the state at %d: %v",
			h1.view.Snapshot(), h1.viewIdx, ce, want.Snapshot())
	}
}
