package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestUpdateSurvivesOverflowRingExhaustion pins the log-pressure
// valve on a full log. Each round stalls p1 between order and persist
// and lets p0 run one update, so every p0 record carries p1's pending
// op. The geometry below (valveCapacity) fills the log every 14 or 15
// records, and every shortage must be absorbed by the valve's cut (a
// delta or a base at the caught-up view, and a truncate) before the
// handle orders, instead of failing the update, with the full history
// surviving a crash.
func TestUpdateSurvivesOverflowRingExhaustion(t *testing.T) {
	inputs := []struct {
		name         string
		sp           spec.Spec
		seed, rounds int // p0 updates before the stalled rounds; rounds
	}{
		{"counter", objects.CounterSpec{}, 0, 20},
		// Distinct keys, so every valve base rewrites a state that
		// dwarfs the window it covers: ~8 shortages per log, and the
		// cuts mix deltas and bases.
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
		NProcs: 3, LogCapacity: valveCapacity,
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

	// The valve must actually have fired, cutting: without truncation
	// p0's log would hold all its records.
	if live := in.Log(0).Len(); live >= rounds {
		t.Fatalf("p0 log holds %d records; the valve never truncated", live)
	}
	if st, ps := in.CompactionStats(), in.Pressure(); st.Bases == 0 ||
		ps.ValveFires != st.Bases+st.Deltas || ps.Spills != int(st.Bases+st.Deltas) {
		t.Fatalf("valve cuts %+v, pressure %+v: want one cut per valve fire and spill", st, ps)
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

// valveCapacity is the log geometry of the valve tests: with three
// processes it gives a region of 2*15 + 2*1 = 32 lines. A stalled
// round's records take two lines in each of p0's and p1's logs, and the
// room check wants the three lines of a worst-case record plus the line
// it keeps for a cut, so a log is short at the check of round 16, with
// 15 records (30 lines) live, and again 14 rounds after each valve
// cut: the cut's record takes one line, and 14 more records leave three
// free.
const valveCapacity = 15

// TestValveReliefAfterRecovery pins the valve's cut on a recovered
// handle whose view lags its own log. The machine crashes with each log
// short of room for the next round's record and p0's view at the
// recovered base (index 0 after 15 rounds, the cut the valve made in
// round 16 after 29), below all of its live records; one more stalled
// round makes p1's and then p0's room check fire the valve. The cut
// catches the view up to the latest available node before it cuts: a
// cut at the stale view would truncate records above it, and their
// operations would be lost at the next crash.
func TestValveReliefAfterRecovery(t *testing.T) {
	for _, rounds := range []int{15, 29} {
		t.Run(fmt.Sprintf("rounds=%d", rounds), func(t *testing.T) { runValveAfterRecovery(t, rounds) })
	}
}

func runValveAfterRecovery(t *testing.T, rounds int) {
	cfg := Config{NProcs: 3, LogCapacity: valveCapacity, LocalViews: true, CompactEvery: 1 << 20}
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	cfg.Gate = ctl
	in, err := New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalledRounds(t, ctl, in, rounds)
	// Both logs are short at round 16's check and, after its cuts, at
	// round 30's.
	if fires, want := in.Pressure().ValveFires, map[int]uint64{15: 0, 29: 2}[rounds]; fires != want {
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
	if ps := in.Pressure(); ps.ValveFires != 2 || ps.Spills != 2 {
		t.Fatalf("pressure %+v after the round, want one valve fire and spill in each of p0's and p1's logs", ps)
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

// TestValveCountsEachShortageOnce pins the pressure counters: each log
// shortage a room check finds is relieved once and counted once in
// ValveFires and Spills. In the geometry above p0's and p1's logs are
// both short at their room checks of rounds 16 and 30, so each of
// those rounds counts two reliefs. Without a view there is no relief:
// the round-16 update gets plog.ErrFull, and nothing is counted.
func TestValveCountsEachShortageOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		views  bool
		fireAt []int // 1-based rounds whose room checks fire the valve
	}{
		{"view", true, []int{16, 30}},
		{"no-view", false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 40
			ctl := sched.NewController()
			pool := pmem.New(1<<22, ctl)
			in, err := New(pool, objects.CounterSpec{}, Config{
				NProcs: 3, LogCapacity: valveCapacity, LocalViews: tc.views, Gate: ctl,
			})
			if err != nil {
				t.Fatal(err)
			}
			var refused [2]error
			for pid := 0; pid < 2; pid++ {
				ctl.Spawn(pid, func() {
					for i := 0; i < rounds; i++ {
						if _, _, err := in.Handle(pid).Update(objects.CounterInc); err != nil {
							refused[pid] = err
							return
						}
					}
				})
			}
			fires := func(round int) (n uint64) {
				for _, r := range tc.fireAt {
					if r == round {
						n++
					}
				}
				return n
			}
			check := func(round int, want uint64) {
				t.Helper()
				if ps := in.Pressure(); ps.ValveFires != want || ps.Spills != int(want) || ps.RingGrows != 0 {
					t.Fatalf("round %d: pressure %+v, want %d valve fires and spills", round, ps, want)
				}
			}
			var want uint64
			for round := 1; round <= rounds; round++ {
				// p1 orders first and p0 runs its update past it, so
				// p0's record carries p1's pending op.
				if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
					if !tc.views && round == 16 && errors.Is(refused[1], plog.ErrFull) {
						check(round, 0)
						return
					}
					t.Fatalf("round %d: p1 failed or finished early: %v", round, refused[1])
				}
				if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
					t.Fatalf("round %d: p0 failed: %v", round, refused[0])
				}
				if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
					t.Fatalf("round %d: p1 failed", round)
				}
				want += 2 * fires(round)
				check(round, want)
			}
			if !tc.views {
				t.Fatal("the log without a view never filled")
			}
			ctl.KillAll()
		})
	}
}
