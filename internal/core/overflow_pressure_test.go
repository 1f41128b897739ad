package core

import (
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestUpdateSurvivesOverflowRingExhaustion pins the overflow-ring
// pressure valve. Each round stalls p1 between order and persist and
// lets p0 run one update, so every p0 record carries p1's pending op —
// past the inline budget of 1, into the overflow ring. The geometry
// below gives the ring room for 16 spilled tails; the rounds exhaust
// it, and every exhaustion must be absorbed by the valve's relief (a
// chain base at the caught-up view, truncate, retry) instead of failing
// the update, with the full history surviving a crash.
func TestUpdateSurvivesOverflowRingExhaustion(t *testing.T) {
	inputs := []struct {
		name         string
		sp           spec.Spec
		seed, rounds int // p0 updates before the stalled rounds; rounds
	}{
		{"counter", objects.CounterSpec{}, 0, 20},
		// Distinct keys, so every valve base rewrites a state that
		// dwarfs the window it covers: ~3 exhaustions.
		{"map", objects.MapSpec{}, 40, 48},
	}
	for _, tc := range inputs {
		t.Run(tc.name, func(t *testing.T) { runRingExhaustion(t, tc.sp, tc.seed, tc.rounds) })
	}
}

func runRingExhaustion(t *testing.T, sp spec.Spec, seed, rounds int) {
	_, counter := sp.(objects.CounterSpec)
	update := func(h *Handle, k uint64) error {
		var err error
		if counter {
			_, _, err = h.Update(objects.CounterInc)
		} else {
			_, _, err = h.Update(objects.MapPut, k, k+1)
		}
		return err
	}
	// p0 seeds keys 0..seed-1, then each round p0 puts 20000+i and p1
	// puts 10000+i.
	var keys []uint64
	for i := 0; i < seed; i++ {
		keys = append(keys, uint64(i))
	}
	for i := 0; i < rounds; i++ {
		keys = append(keys, uint64(10000+i), uint64(20000+i))
	}

	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, sp, Config{
		// CompactEvery is set far past the run so only the pressure
		// valve — never the regular compaction cadence — truncates.
		// Ring: max(64 slots * 16-word chunk / 8, 4*16) = 128 words,
		// 16 aligned 1-op tails.
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1,
		LocalViews: true, CompactEvery: 1 << 20, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < rounds; i++ {
			if err := update(h, uint64(10000+i)); err != nil {
				panic(err)
			}
		}
	})
	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < seed; i++ {
			if err := update(h, uint64(i)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < rounds; i++ {
			if err := update(h, uint64(20000+i)); err != nil {
				panic(err)
			}
		}
	})
	for i := 0; i < seed; i++ {
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("seed %d: p0 finished early", i)
		}
	}
	for i := 0; i < rounds; i++ {
		if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
			t.Fatalf("round %d: p1 finished early", i)
		}
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p0 finished early", i)
		}
		if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p1 could not finish its update", i)
		}
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	if out := <-done0; out != nil {
		t.Fatalf("p0 failed under ring exhaustion: %v", out)
	}
	if out := <-done1; out != nil {
		t.Fatalf("p1 failed: %v", out)
	}
	ctl.KillAll()

	// The valve must actually have fired, laying chain bases: without
	// truncation p0's log would hold all its records.
	if live := in.Log(0).Len(); live >= rounds {
		t.Fatalf("p0 log holds %d records; the valve never truncated", live)
	}
	if st := in.CompactionStats(); st.Bases == 0 || st.Deltas != 0 {
		t.Fatalf("valve cuts %+v, want chain bases only (valve fired %d times)",
			st, in.Pressure().ValveFires)
	}
	// A handle with a view never needs a bigger ring: its base truncates
	// every record holding a ring chunk.
	if g := in.Pressure().RingGrows; g != 0 {
		t.Fatalf("ring grew %d times under a handle with a view", g)
	}

	pool.SetGate(nil)
	pool.Crash(pmem.DropAll) // every update was fenced: all must survive
	in2, rep, err := Recover(pool, sp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := in2.Handle(0)
	if counter {
		if got := h.Read(objects.CounterGet); got != uint64(seed+2*rounds) {
			t.Fatalf("recovered counter %d, want %d", got, seed+2*rounds)
		}
	} else {
		for _, k := range keys {
			if got := h.Read(objects.MapGet, k); got != k+1 {
				t.Fatalf("key %d recovered as %d, want %d", k, got, k+1)
			}
		}
	}
	for pid := 0; pid < 2; pid++ {
		n := uint64(rounds)
		if pid == 0 {
			n += uint64(seed)
		}
		for seq := uint64(1); seq <= n; seq++ {
			// Every completed update must stay detectable, via the
			// valve bases' covered-sequence vector or records.
			if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
				t.Fatalf("p%d op %d vanished across the emergency compaction", pid, seq)
			}
		}
	}
}

// TestValveReliefAfterRecovery pins the relief on a recovered handle
// whose view lags its own log. The geometry is the one above: 16 ring
// tails, one spilled per stalled round. The machine crashes with p0's
// ring full and its view at the recovered base (index 0 after 16 rounds,
// the base the valve laid at round 17 after 32), below all 16 of its
// live records; one more stalled round makes p0's first append refuse.
// The relief catches the view up before it lays the base: a base at the
// stale view would truncate records above it, and their operations
// would be lost at the next crash.
func TestValveReliefAfterRecovery(t *testing.T) {
	for _, rounds := range []int{16, 32} {
		t.Run(fmt.Sprintf("rounds=%d", rounds), func(t *testing.T) { runValveAfterRecovery(t, rounds) })
	}
}

func runValveAfterRecovery(t *testing.T, rounds int) {
	cfg := Config{NProcs: 3, LogCapacity: 64, LogInlineOps: 1, LocalViews: true, CompactEvery: 1 << 20}
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	cfg.Gate = ctl
	in, err := New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalledRounds(t, ctl, in, rounds)
	if fires, want := in.Pressure().ValveFires, uint64(rounds/16-1); fires != want {
		t.Fatalf("valve fired %d times before the crash, want %d", fires, want)
	}

	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	ctl = sched.NewController()
	pool.SetGate(ctl)
	cfg.Gate = ctl
	in, _, err = Recover(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := in.Handle(0); h.viewIdx >= in.Log(0).Records()[in.Log(0).Len()-1].ExecIdx {
		t.Fatalf("p0's view at %d does not lag its log; the test is vacuous", h.viewIdx)
	}
	stalledRounds(t, ctl, in, 1)
	if ps := in.Pressure(); ps.ValveFires != 1 || ps.RingGrows != 0 {
		t.Fatalf("pressure %+v after the refused append, want one valve fire and no ring growth", ps)
	}

	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	in, rep, err := Recover(pool, objects.CounterSpec{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(rounds + 1)
	if got := in.Handle(0).Read(objects.CounterGet); got != 2*n {
		t.Fatalf("recovered counter %d, want %d", got, 2*n)
	}
	for pid := 0; pid < 2; pid++ {
		for seq := uint64(1); seq <= n; seq++ {
			if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
				t.Fatalf("p%d op %d vanished across the relief", pid, seq)
			}
		}
	}
}

// stalledRounds runs rounds counter increments on each of p0 and p1,
// every round stalling p1 between order and persist while p0 completes
// one update, so each p0 record carries p1's pending op.
func stalledRounds(t *testing.T, ctl *sched.Controller, in *Instance, rounds int) {
	t.Helper()
	inc := func(pid int) <-chan any {
		return ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			for i := 0; i < rounds; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
			}
		})
	}
	done1, done0 := inc(1), inc(0)
	for i := 0; i < rounds; i++ {
		if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
			t.Fatalf("round %d: p1 finished early", i)
		}
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p0 finished early", i)
		}
		if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p1 could not finish its update", i)
		}
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	for pid, done := range []<-chan any{done0, done1} {
		if out := <-done; out != nil {
			t.Fatalf("p%d failed: %v", pid, out)
		}
	}
	ctl.KillAll()
}
