package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestRecoveryMatchesListing5 cross-checks the production recovery
// (single pass over indexed logs) against the literal Listing 5
// transcription, on randomized crash states: both must reconstruct the
// same operation sequence.
func TestRecoveryMatchesListing5(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gate := sched.NewStepCounter(200+seed*97, nil)
			pool := pmem.New(1<<24, gate)
			in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 3, Gate: gate})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{}, 3)
			for pid := 0; pid < 3; pid++ {
				go func(pid int) {
					defer func() {
						recover() // killed by the gate: fine
						done <- struct{}{}
					}()
					h := in.Handle(pid)
					for i := 0; i < 20; i++ {
						h.Update(objects.CounterInc)
					}
				}(pid)
			}
			for i := 0; i < 3; i++ {
				<-done
			}
			pool.Crash(pmem.SeededOracle(seed, 1, 2))
			pool.SetGate(nil)

			matchListing5(t, pool, objects.CounterSpec{}, 3, Config{})
		})
	}
}

func TestRecoveryMatchesListing5WithCompaction(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 2, CompactEvery: 7, LogCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := in.Handle(i % 2).Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash(pmem.DropAll)
	if rep, _ := matchListing5(t, pool, objects.CounterSpec{}, 2, Config{}); rep.BaseIdx == 0 {
		t.Fatal("no compaction record to restart from")
	}
}

// TestQuickDifferentialSingleProcess: ONLL return values must equal a
// plain sequential replay, for random op sequences on random objects.
func TestQuickDifferentialSingleProcess(t *testing.T) {
	all := objects.All()
	f := func(pick uint8, codesRaw []byte) bool {
		sp := all[int(pick)%len(all)]
		d := sp.(objects.Describer)
		var updates []objects.OpInfo
		for _, oi := range d.Ops() {
			if oi.Kind == objects.KindUpdate {
				updates = append(updates, oi)
			}
		}
		if len(codesRaw) > 40 {
			codesRaw = codesRaw[:40]
		}
		pool := pmem.New(1<<24, nil)
		in, err := New(pool, sp, Config{NProcs: 1})
		if err != nil {
			return false
		}
		h := in.Handle(0)
		ref := sp.New()
		for i, c := range codesRaw {
			oi := updates[int(c)%len(updates)]
			args := make([]uint64, oi.Arity)
			for k := range args {
				args[k] = uint64(c)%13 + uint64(i*k) + 1
			}
			got, _, err := h.Update(oi.Code, args...)
			if err != nil {
				return false
			}
			op := mkOp(oi.Code, args...)
			if want := ref.Apply(op); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashPrefix: for a single process, the recovered sequence is
// always a prefix of the invocation order, whatever the oracle.
func TestQuickCrashPrefix(t *testing.T) {
	f := func(nOps uint8, crashFrac uint8, oseed uint64) bool {
		n := int(nOps)%30 + 1
		gate := sched.NewStepCounter(uint64(crashFrac)%200+5, nil)
		pool := pmem.New(1<<24, nil) // setup un-gated; crashes start after
		in, err := New(pool, objects.LogSpec{}, Config{NProcs: 1, Gate: gate})
		if err != nil {
			return false
		}
		pool.SetGate(gate)
		func() {
			defer func() { recover() }()
			h := in.Handle(0)
			for i := 0; i < n; i++ {
				h.Update(objects.LogAppend, uint64(i)+1)
			}
		}()
		pool.Crash(pmem.SeededOracle(oseed, 1, 2))
		pool.SetGate(nil)
		_, rep, err := Recover(pool, objects.LogSpec{}, Config{})
		if err != nil {
			return false
		}
		// The recovered appends must be exactly 1..k for some k <= n.
		if int(rep.LastIdx) > n {
			return false
		}
		for i, op := range rep.Ordered {
			if op.Code != objects.LogAppend || op.Args[0] != uint64(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// matchListing5 recovers the crashed image in pool with the production
// recovery (in the mode cfg selects) and with the Listing 5 reference,
// reading the same records, and fails unless both restart
// from the same base — index, state and covered seqs — and recover the
// same ordered suffix. A quarantined salvage is not compared: its
// recovery deliberately stops short of what the records hold. It
// returns the production report and the delta links the reference
// folded.
func matchListing5(t *testing.T, pool *pmem.Pool, sp spec.Spec, nprocs int, cfg Config) (*Report, int) {
	t.Helper()
	in, rep, err := Recover(pool, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.Health().Mode == ModeQuarantined {
		return rep, 0
	}
	lit, err := recoverListing5(pool, sp, nprocs, cfg.RootBase)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]uint64{}
	for pid, seq := range lit.seqs {
		if seq > 0 {
			covered[pid] = seq
		}
	}
	switch {
	case lit.baseIdx != rep.BaseIdx:
		t.Fatalf("base: listing5 %d vs production %d", lit.baseIdx, rep.BaseIdx)
	case !slices.Equal(lit.baseState, rep.BaseState):
		t.Fatalf("base state at %d (%d deltas): listing5 %v vs production %v",
			lit.baseIdx, lit.deltas, lit.baseState, rep.BaseState)
	case !maps.Equal(covered, rep.CoveredSeq):
		t.Fatalf("covered seqs: listing5 %v vs production %v", covered, rep.CoveredSeq)
	case !slices.Equal(lit.ordered, rep.Ordered):
		t.Fatalf("listing5 (%d ops from %d) vs production (%d ops from %d)",
			len(lit.ordered), lit.baseIdx, len(rep.Ordered), rep.BaseIdx)
	}
	return rep, lit.deltas
}

// TestRecoveryMatchesListing5Chains runs the Listing 5 differential
// over delta-chain images: seeded schedules of three processes crash at
// a random step under a random line-survival oracle. The shapes are the
// pipeline (chains up to the default MaxDeltaChain), every cut
// collapsing (MaxDeltaChain 1: the full-snapshot trace shape), an
// instance at RootBase != 0 beside one at 0 on the same pool, and
// salvaged images with media faults injected after the crash, compared
// when they come back Healthy or Degraded. Seeds alternate a map, whose
// deltas are object diffs, and a queue, whose deltas replay ops.
func TestRecoveryMatchesListing5Chains(t *testing.T) {
	const nprocs = 3
	pipeline := Config{ReadFastPath: true, DeltaSnapshots: true, CompactEvery: 6}
	collapse := pipeline
	collapse.MaxDeltaChain = 1
	shapes := []struct {
		name     string
		cfg      Config
		rootBase int
		faults   int
	}{
		{"pipeline", pipeline, 0, 0},
		{"chain=1", collapse, 0, 0},
		{"rootbase", pipeline, RootSpan(nprocs), 0},
		{"salvage", pipeline, 0, 4},
	}
	// -short keeps all 48 seeds: the salvage shape's first Degraded
	// image comes at seed 29.
	const seeds = 48
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			deltas, modes := 0, map[HealthMode]int{}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				sp := []spec.Spec{objects.MapSpec{}, objects.QueueSpec{}}[seed%2]
				cfg := sh.cfg
				cfg.NProcs, cfg.LogCapacity, cfg.RootBase = nprocs, 128, sh.rootBase
				pool := crashImage(t, sp, cfg, seed)
				if sh.faults > 0 {
					rootLines := uint64(pmem.RootSlots * pmem.WordSize / pmem.LineSize)
					pool.InjectFaults(pmem.PlanFaults(uint64(seed)*7919, sh.faults, rootLines, pool.AllocatedLines()))
					cfg.Salvage = true
				}
				cfg.Gate = nil
				rep, d := matchListing5(t, pool, sp, nprocs, cfg)
				deltas += d
				if rep.Salvage != nil {
					modes[rep.Salvage.Mode]++
				}
				if sh.rootBase != 0 {
					// The counter at RootBase 0 shares the pool.
					cfg.RootBase = 0
					matchListing5(t, pool, objects.CounterSpec{}, nprocs, cfg)
				}
			}
			if deltas == 0 && sh.cfg.MaxDeltaChain != 1 {
				t.Fatal("no image restarted from a chain with deltas: the fold went unchecked")
			}
			if sh.faults > 0 && (modes[ModeHealthy] == 0 || modes[ModeDegraded] == 0) {
				t.Fatalf("salvage outcomes %v: want Healthy and Degraded images compared", modes)
			}
			t.Logf("%d delta links folded; salvage outcomes %v", deltas, modes)
		})
	}
}

// crashImage runs a seeded schedule of cfg.NProcs processes on sp
// (puts and deletes on 16 keys for the map, enqueue-heavy for the
// queue), crashes it at a random step under a random survival oracle,
// and returns the pool. An instance of cfg at RootBase != 0 gets a
// counter at RootBase 0 beside it, updated before the schedule starts.
func crashImage(t *testing.T, sp spec.Spec, cfg Config, seed int64) *pmem.Pool {
	t.Helper()
	const perProc = 40
	rng := rand.New(rand.NewSource(seed))
	ctl := sched.NewController()
	pool := pmem.New(1<<23, ctl)
	if cfg.RootBase != 0 {
		other, err := New(pool, objects.CounterSpec{}, Config{NProcs: cfg.NProcs, LogCapacity: 64, CompactEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, _, err := other.Handle(i % cfg.NProcs).Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.Gate = ctl
	in, err := New(pool, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < cfg.NProcs; pid++ {
		ops := rand.New(rand.NewSource(seed*31 + int64(pid)))
		ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			for i := 0; i < perProc; i++ {
				k := uint64(ops.Intn(16))
				var err error
				switch _, queue := sp.(objects.QueueSpec); {
				case queue && ops.Intn(4) == 0:
					_, _, err = h.Update(objects.QueueDeq)
				case queue:
					_, _, err = h.Update(objects.QueueEnq, k+1)
				case ops.Intn(4) == 0:
					_, _, err = h.Update(objects.MapDel, k)
				default:
					_, _, err = h.Update(objects.MapPut, k, uint64(i+1))
				}
				if err != nil {
					panic(err)
				}
			}
		})
	}
	for steps := 200 + rng.Intn(12000); steps > 0; steps-- {
		var live []int
		for pid := 0; pid < cfg.NProcs; pid++ {
			if !ctl.Done(pid) {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			break
		}
		ctl.StepN(live[rng.Intn(len(live))], 1)
	}
	ctl.KillAll()
	pool.SetGate(nil)
	pool.Crash(pmem.SeededOracle(uint64(seed), uint64(rng.Intn(3)), 2))
	return pool
}
