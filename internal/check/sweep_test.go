package check

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// TestCrashInjectionSweep is the randomized crash-injection sweep at
// high process counts (16/32/64): each iteration runs a mixed
// update/read workload, crashes the whole machine at a random global
// step under a random line-survival oracle, recovers the whole image
// (core.Recover over every per-process log, snapshots included), and
// asserts that the recovered state is a valid linearization of the
// acked prefix (CheckDurable rules R1–R5: completed ops survive,
// nothing is invented, real-time order holds, and every return value
// is reproduced by the recovered order).
//
// Even iterations shrink the two-tier inline budget to 1 AND enable
// compaction: every record with a helped operation spills, truncation
// frees and reuses overflow chunks under the random crash point, and
// the pressure valve is armed should a burst exhaust the ring (a chain
// base at the view). Odd iterations run the default inline budget
// with compaction, exercising chain records at scale. Every third
// iteration additionally switches to the wait-free execution trace, so
// the wait-free ordering + compaction combination (helping across a
// cut) is crashed and recovered at every process count.
//
// The iteration index also picks the chain shape: odd iterations crash
// the pipeline (base+delta chains of the default length), even ones the
// reference chain (MaxDeltaChain 1: every cut is a base that cuts the
// trace), so a default run covers both. Every leg has local views, so
// every read takes the epoch check.
//
// -short trims the sweep to 16 processes (the bounded CI job);
// ONLL_SWEEP_ITERS overrides the per-configuration iteration count.
func TestCrashInjectionSweep(t *testing.T) {
	procsList := []int{16, 32, 64}
	iters := 3
	if testing.Short() {
		procsList = []int{16}
	}
	if s := os.Getenv("ONLL_SWEEP_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad ONLL_SWEEP_ITERS %q", s)
		}
		iters = n
	}
	specs := []spec.Spec{objects.MapSpec{}, objects.QueueSpec{}}
	for _, nprocs := range procsList {
		nprocs := nprocs
		t.Run(fmt.Sprintf("procs=%d", nprocs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nprocs) * 7717))
			for si, sp := range specs {
				base := HarnessConfig{
					Spec: sp, NProcs: nprocs, OpsPerProc: 12, UpdatePct: 60,
					Seed: int64(si + 1),
				}
				// Probe a full run to learn the step-count magnitude, so
				// random crash points land throughout the execution (a
				// point past the end degenerates to a crash after
				// completion, which must preserve everything).
				probe, err := RunLive(base)
				if err != nil {
					t.Fatalf("%s: probe: %v", sp.Name(), err)
				}
				for i := 0; i < iters; i++ {
					cfg := base
					cfg.Seed = int64(i)*104729 + int64(si)*31 + 17
					cfg.CrashStep = 1 + uint64(rng.Int63n(int64(probe.Steps)))
					cfg.Oracle = pmem.SeededOracle(uint64(cfg.Seed)+uint64(i), uint64(rng.Intn(4)), 3)
					cfg.Core.LocalViews, cfg.Core.CompactEvery = true, 8
					cfg.Core.WaitFree = i%3 == 0 // wait-free ordering + compaction combo
					// The pipeline legs put delta append, truncation
					// behind a live chain and base+delta refolding under
					// the random crash point.
					pipeline := i%2 == 1
					if !pipeline {
						cfg.Core.MaxDeltaChain = 1
					}
					res, err := RunCrash(cfg)
					if err != nil {
						t.Fatalf("%s procs=%d iter=%d crash@%d pipeline=%v: %v",
							sp.Name(), nprocs, i, cfg.CrashStep, pipeline, err)
					}
					// The recovered instance must be servable by every
					// replacement process, not just consistent on paper.
					if res.Instance != nil {
						for pid := 0; pid < nprocs; pid += nprocs / 4 {
							res.Instance.Handle(pid).Read(readProbe(sp))
						}
					}
				}
			}
			readHeavySweep(t, nprocs, iters)
		})
	}
}

// readHeavySweep is the read-heavy crash mix: 15% updates and a tight
// compaction cadence, so epoch-checked reads run under the random crash
// point, even iterations with delta chains and odd ones with every cut
// a base — and again in the recovered era, where every replacement handle starts cold and must
// catch up to a trace it never walked. Probing a read from EVERY handle
// after recovery forces that cold-start path.
func readHeavySweep(t *testing.T, nprocs, iters int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nprocs)*4049 + 3))
	base := HarnessConfig{
		Spec: objects.MapSpec{}, NProcs: nprocs, OpsPerProc: 30, UpdatePct: 15,
		Seed: int64(nprocs)*13 + 5, Core: core.Config{LocalViews: true, CompactEvery: 8},
	}
	probe, err := RunLive(base)
	if err != nil {
		t.Fatalf("read-heavy probe: %v", err)
	}
	for i := 0; i < iters; i++ {
		cfg := base
		cfg.Seed = int64(i)*50021 + 29
		cfg.CrashStep = 1 + uint64(rng.Int63n(int64(probe.Steps)))
		cfg.Oracle = pmem.SeededOracle(uint64(cfg.Seed), uint64(rng.Intn(4)), 3)
		cfg.Core.WaitFree = i%2 == 1
		pipeline := i%2 == 0
		if !pipeline {
			cfg.Core.MaxDeltaChain = 1
		}
		res, err := RunCrash(cfg)
		if err != nil {
			t.Fatalf("read-heavy procs=%d iter=%d crash@%d waitfree=%v pipeline=%v: %v",
				nprocs, i, cfg.CrashStep, cfg.Core.WaitFree, pipeline, err)
		}
		if res.Instance != nil {
			for pid := 0; pid < nprocs; pid++ {
				res.Instance.Handle(pid).Read(objects.MapLen)
			}
		}
	}
}

// readProbe returns a read opcode for the sweep's target objects.
func readProbe(sp spec.Spec) uint64 {
	switch sp.(type) {
	case objects.QueueSpec:
		return objects.QueueLen
	default:
		return objects.MapLen
	}
}

// TestCrashInjectionSweepPfences pins the cost side of multi-line
// records at scale: a 16-process update-only run (no crash) must issue
// exactly one persistent fence per update and zero per read, however
// many lines each record takes.
func TestCrashInjectionSweepPfences(t *testing.T) {
	cfg := HarnessConfig{
		Spec: objects.MapSpec{}, NProcs: 16, OpsPerProc: 25, UpdatePct: 100,
		Seed: 9,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for _, o := range res.History {
		if o.IsUpdate {
			updates++
		}
	}
	st := res.Pool.TotalStats()
	// Setup (log headers, roots) fences too; exclude it by bounding:
	// every update fences exactly once, setup adds a known constant
	// (one per log create + two roots, all by the system pid).
	if st.PersistentFences < uint64(updates) {
		t.Fatalf("%d pfences < %d updates", st.PersistentFences, updates)
	}
	perPid := res.Pool.StatsOf(3) // an ordinary worker pid
	var pidUpdates uint64
	for _, o := range res.History {
		if o.IsUpdate && o.PID == 3 {
			pidUpdates++
		}
	}
	// +1: the pid's log header is persisted once at setup.
	if perPid.PersistentFences != pidUpdates+1 {
		t.Fatalf("pid 3 issued %d pfences for %d updates (want exactly 1/update +1 setup)",
			perPid.PersistentFences, pidUpdates)
	}
}
