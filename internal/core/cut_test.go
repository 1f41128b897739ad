package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestFullLogLeavesRoomForACut pins the line the room check keeps for a
// cut. p0 fills its log with seven one-op records, p1–p7 each stage one
// op, and p0's next update persists all eight ops in one worst-case
// record. Its room check finds the log short and cuts first, into the
// kept line, so the record fits and p0 keeps updating; without that
// line the record took the log's last free line, the cut behind it had
// no line for its record, and every later p0 update failed with
// plog.ErrFull. CompactEvery 8 also makes the cadence due at that
// update, where the cut after the fence used to fail with an op id.
func TestFullLogLeavesRoomForACut(t *testing.T) {
	for _, ce := range []int{0, 8} {
		t.Run(fmt.Sprintf("CompactEvery=%d", ce), func(t *testing.T) {
			const nprocs = 8
			_, in := newCounter(t, Config{NProcs: nprocs, LocalViews: true, LogCapacity: 8, CompactEvery: ce})
			h0 := in.Handle(0)
			update := func(i int) {
				t.Helper()
				if _, id, err := h0.Update(objects.CounterInc); err != nil || id == 0 {
					t.Fatalf("p0 update %d: id %#x, %v", i, id, err)
				}
			}
			for i := 1; i <= 7; i++ {
				update(i)
			}
			var batches []*Batch
			for pid := 1; pid < nprocs; pid++ {
				b := in.Handle(pid).NewBatch()
				if _, _, err := b.Stage(objects.CounterInc); err != nil {
					t.Fatalf("p%d Stage: %v", pid, err)
				}
				batches = append(batches, b)
			}
			for i := 8; i <= 14; i++ {
				update(i)
			}
			if ps := in.Pressure(); ps.ValveFires == 0 {
				t.Fatalf("pressure %+v: p0's log was never short", ps)
			}
			if got := h0.Read(objects.CounterGet); got != 21 {
				t.Fatalf("counter reads %d, want 21", got)
			}
			for i, b := range batches {
				if err := b.Flush(); err != nil {
					t.Fatalf("p%d Flush: %v", i+1, err)
				}
			}
			in.Pool().Crash(pmem.DropAll)
			rin, rep, err := Recover(in.Pool(), objects.CounterSpec{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := rin.Handle(0).Read(objects.CounterGet); got != 21 {
				t.Fatalf("recovered counter %d, want 21", got)
			}
			for seq := uint64(1); seq <= 14; seq++ {
				if _, ok := rep.WasLinearized(spec.MakeID(0, seq)); !ok {
					t.Fatalf("p0 op %d lost", seq)
				}
			}
		})
	}
}

// TestErrorMeansNothingOrdered pins the promise of the update entry
// points' errors. Random Update, Stage and Flush calls run on every
// handle of tiny geometries (NProcs 2–8, LogCapacity 2–16, pools with
// little room for chain bodies), so logs fill, cuts fail, batches
// outgrow their span and other handles' staged ops deepen every fuzzy
// window. Every error must carry id 0 and leave the trace as it was:
// the op was not ordered, and recovery from the image at that moment
// (checked for the first error of each kind) does not report it
// linearized. Flush never fails. After every batch is flushed, a crash
// must recover every op that returned without error.
func TestErrorMeansNothingOrdered(t *testing.T) {
	for ce := 0; ce <= 8; ce++ {
		t.Run(fmt.Sprintf("CompactEvery=%d", ce), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				runErrorPromise(t, ce, seed)
			}
		})
	}
}

func runErrorPromise(t *testing.T, ce int, seed int64) {
	rng := rand.New(rand.NewSource(seed*100 + int64(ce)))
	nprocs := 2 + rng.Intn(7)
	cfg := Config{
		NProcs: nprocs, LogCapacity: 2 + rng.Intn(15), LocalViews: ce > 0 || rng.Intn(3) > 0,
		CompactEvery: ce, MaxDeltaChain: 1 + rng.Intn(3),
	}
	// At the default LogMaxOps a batch spans one op, so every handle
	// may stage at once; a raised bound admits batches of more ops, and
	// then only p0 stages (Config.LogMaxOps: one batch at a time).
	stagers := nprocs
	if rng.Intn(2) == 0 {
		cfg.LogMaxOps = nprocs + 1 + rng.Intn(4)
		stagers = 1
	}
	where := fmt.Sprintf("seed %d %+v", seed, cfg)
	room := 1 << 16 // for chain bodies; a third of the pools are tight
	if rng.Intn(3) == 0 {
		room = pmem.LineSize * rng.Intn(64)
	}
	logs := nprocs * plog.RegionBytes(cfg.LogCapacity, max(cfg.LogMaxOps, nprocs))
	pool := pmem.New(pmem.RootSlots*pmem.WordSize+logs+room, nil)
	in, err := New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	batches := make([]*Batch, nprocs)
	for pid := range batches {
		batches[pid] = in.Handle(pid).NewBatch()
	}
	var acked []uint64           // ids of ops that returned without error
	checked := map[string]bool{} // error texts checked against an image
	for step := 0; step < 300; step++ {
		pid := rng.Intn(nprocs)
		h, b := in.Handle(pid), batches[pid]
		if b.Pending() > 0 && rng.Intn(3) == 0 {
			if err := b.Flush(); err != nil {
				t.Fatalf("%s step %d: p%d Flush: %v", where, step, pid, err)
			}
			continue
		}
		next, tail := h.NextOpID(), in.Trace().Tail(0)
		var id uint64
		var call string
		if b.Pending() == 0 && (pid >= stagers || rng.Intn(2) == 0) {
			call = "Update"
			_, id, err = h.Update(objects.CounterInc)
		} else {
			call = "Stage"
			_, id, err = b.Stage(objects.CounterInc)
		}
		if err == nil {
			acked = append(acked, id)
			continue
		}
		if id != 0 || h.NextOpID() != next || in.Trace().Tail(0) != tail {
			t.Fatalf("%s step %d: p%d %s failed (%v) with id %#x; next id %#x -> %#x, tail moved %v: the op was ordered",
				where, step, pid, call, err, id, next, h.NextOpID(), in.Trace().Tail(0) != tail)
		}
		if checked[err.Error()] {
			continue
		}
		checked[err.Error()] = true
		var img bytes.Buffer
		if err := pool.WriteImage(&img); err != nil {
			t.Fatal(err)
		}
		cp, err := pmem.ReadImage(&img, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, rerr := Recover(cp, objects.CounterSpec{}, Config{})
		if rerr != nil {
			t.Fatalf("%s step %d: recovery after p%d's %s error: %v", where, step, pid, call, rerr)
		}
		if _, ok := rep.WasLinearized(next); ok {
			t.Fatalf("%s step %d: p%d's %s failed (%v), yet recovery reports op %#x linearized", where, step, pid, call, err, next)
		}
	}
	for pid, b := range batches {
		if err := b.Flush(); err != nil {
			t.Fatalf("%s: final p%d Flush: %v", where, pid, err)
		}
	}
	pool.Crash(pmem.DropAll)
	rin, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	for _, id := range acked {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("%s: op %#x returned without error but was lost", where, id)
		}
	}
	if got := rin.Handle(0).Read(objects.CounterGet); got != uint64(len(acked)) {
		t.Fatalf("%s: recovered counter %d for %d ops that returned without error", where, got, len(acked))
	}
}

// TestTwoCutsAtOneNodeAgree pins the premise of a splice after another
// handle's node (compact): two handles that cut at one node lay bases
// of the same state. p1 parks in the order stage whose cut will find
// node 8, the latest available; p0 cuts there and orders node 9; then
// p1 cuts at node 8 too and splices its own base over p0's. Both bases
// must stand for the same state and the same covered sequences, so a
// walker that loaded either reads the same prefix.
func TestTwoCutsAtOneNodeAgree(t *testing.T) {
	const ce = 4
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 2, LogCapacity: 64, CompactEvery: ce, MaxDeltaChain: 1, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	// Both handles run on the test goroutine (never parked) until p1 is
	// spawned.
	put := func(h *Handle, k uint64) {
		if _, _, err := h.Update(objects.MapPut, k, k+1); err != nil {
			panic(err)
		}
	}
	for i := uint64(0); i < ce; i++ {
		put(h0, i)
		put(h1, 100+i)
	}
	node := in.Trace().Tail(0)
	if node.Idx() != 2*ce {
		t.Fatalf("tail at %d, want %d", node.Idx(), 2*ce)
	}
	done1 := ctl.Spawn(1, func() { put(h1, 200) })
	if _, ok := ctl.RunUntil(1, sched.AtPoint("trace.scan")); !ok {
		t.Fatal("p1 finished early")
	}
	put(h0, 300)
	first := node.Next()
	ctl.RunToCompletion(1)
	if out := <-done1; out != nil {
		t.Fatal(out)
	}
	second := node.Next()
	if first == second || first.Kind != trace.KindBase || second.Kind != trace.KindBase {
		t.Fatalf("node %d links %v then %v; want two bases", node.Idx(), first, second)
	}
	if st := in.CompactionStats(); st.Bases != 2 || in.cutIdx.Load() != node.Idx() {
		t.Fatalf("%d bases, cut index %d; want 2 bases at %d", st.Bases, in.cutIdx.Load(), node.Idx())
	}
	restore := func(b *trace.Node) spec.State {
		st := objects.MapSpec{}.New()
		if err := st.Restore(b.Snap); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if first.Idx() != second.Idx() || !spec.Equal(restore(first), restore(second)) ||
		fmt.Sprint(first.Seqs) != fmt.Sprint(second.Seqs) {
		t.Fatalf("bases at one node differ: %d %v seqs %v, %d %v seqs %v",
			first.Idx(), restore(first).Snapshot(), first.Seqs, second.Idx(), restore(second).Snapshot(), second.Seqs)
	}
	for _, h := range []*Handle{h0, h1} {
		if n := h.Read(objects.MapLen); n != 2*ce+2 {
			t.Fatalf("p%d reads %d keys, want %d", h.PID(), n, 2*ce+2)
		}
	}
}
