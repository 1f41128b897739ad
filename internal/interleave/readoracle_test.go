package interleave

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// TestDurableReadOracle is the model-checked oracle for the read path:
// under fully deterministic, seeded interleavings (every shared-memory
// step individually granted by the controller), it asserts the two
// properties every read must preserve on every handle, over both trace
// variants, on the pipeline (fast=true: local views, so epoch-checked
// reads, and compaction) and on the plain Section 3 construction
// (fast=false: no views, every read walks and replays):
//
//   - per-handle view monotonicity: a read never observes an older view
//     than any previous operation on the same handle — on the counter,
//     whose value is the number of increments in the prefix, that is
//     exactly "returned values never decrease per handle";
//   - read-your-writes: a read after the handle's own update returns at
//     least that update's return value (the update is in the view).
//
// On the pipeline, compaction is on so epoch checks, catch-up walks and
// base restores all interleave with the scheduler's preemptions; the
// final read cross-checks that no increment was lost. ONLL_ORACLE_SEEDS
// overrides the seed count (CI bounds it; -short trims it).
func TestDurableReadOracle(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	if s := os.Getenv("ONLL_ORACLE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad ONLL_ORACLE_SEEDS %q", s)
		}
		seeds = n
	}
	for _, fast := range []bool{false, true} {
		for _, wf := range []bool{false, true} {
			t.Run(fmt.Sprintf("fast=%v/waitfree=%v", fast, wf), func(t *testing.T) {
				for seed := 0; seed < seeds; seed++ {
					runReadOracle(t, fast, wf, int64(seed))
				}
			})
		}
	}
}

func runReadOracle(t *testing.T, fast, wf bool, seed int64) {
	t.Helper()
	const nprocs = 3
	const perProc = 14
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	cfg := core.Config{NProcs: nprocs, Gate: ctl, WaitFree: wf, LogCapacity: 256}
	if fast {
		cfg.LocalViews, cfg.CompactEvery = true, 5
	}
	in, err := core.New(pool, objects.CounterSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var totalIncs atomic.Uint64
	outcomes := make([]<-chan any, nprocs)
	for pid := 0; pid < nprocs; pid++ {
		pid := pid
		outcomes[pid] = ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			rng := rand.New(rand.NewSource(seed*1009 + int64(pid)))
			var lastSeen uint64 // highest counter value this handle observed
			for i := 0; i < perProc; i++ {
				if rng.Intn(100) < 40 {
					ret, _, err := h.Update(objects.CounterInc)
					if err != nil {
						panic(fmt.Sprintf("update: %v", err))
					}
					totalIncs.Add(1)
					if ret < lastSeen {
						t.Errorf("seed=%d fast=%v wf=%v p%d: update returned %d after observing %d (view regressed)",
							seed, fast, wf, pid, ret, lastSeen)
					}
					lastSeen = ret
				} else {
					got := h.Read(objects.CounterGet)
					if got < lastSeen {
						t.Errorf("seed=%d fast=%v wf=%v p%d: read %d after observing %d (monotonicity / read-your-writes violated)",
							seed, fast, wf, pid, got, lastSeen)
					}
					lastSeen = got
				}
			}
		})
	}

	// The deterministic scheduler: grant one step at a time to a
	// pseudo-randomly chosen live process (same shape as Run).
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, 0, nprocs)
	for {
		live = live[:0]
		for pid := 0; pid < nprocs; pid++ {
			if !ctl.Done(pid) {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			break
		}
		ctl.StepN(live[rng.Intn(len(live))], 1)
	}
	for _, ch := range outcomes {
		if r := <-ch; r != nil {
			t.Fatalf("seed=%d fast=%v wf=%v: process failed: %v", seed, fast, wf, r)
		}
	}
	// Every increment linearized: a fresh read from any handle must see
	// them all (the trace is quiescent, so the walk reaches the tail).
	if got, want := in.Handle(0).Read(objects.CounterGet), totalIncs.Load(); got != want {
		t.Fatalf("seed=%d fast=%v wf=%v: final read %d, want %d", seed, fast, wf, got, want)
	}
}

// TestDurableReadOracleYCSBD is the read-latest (YCSB-D-shaped) leg of
// the oracle: under fully deterministic seeded interleavings, each
// process mints FRESH keys into the ordered map (its own disjoint key
// region, like workload.YCSBD's streams) and reads chase recency —
// mostly its own latest insert, sometimes the map size. This is the
// churn shape where the update-side publication keeps the shared slot
// on the insert frontier, and every handle must preserve:
//
//   - read-your-writes: a get of a key this handle inserted returns
//     the exact value it wrote (its region is private, so the value
//     can never be overwritten by another process);
//   - per-handle view monotonicity: the map size a handle observes
//     never shrinks (keys are only ever inserted).
//
// A tight compaction cadence forces catch-up walks and base restores to
// interleave with the scheduler's preemptions; the final cross-check
// counts every insert. The whole matrix runs with every cut a base
// (MaxDeltaChain 1, the delta=false leg) AND with delta chains, so the
// fast path's epoch checks interleave with delta cuts, ordered-map diff
// emission and chain-base collapses too.
func TestDurableReadOracleYCSBD(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 6
	}
	if s := os.Getenv("ONLL_ORACLE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad ONLL_ORACLE_SEEDS %q", s)
		}
		seeds = n
	}
	for _, deltaSnap := range []bool{false, true} {
		// The updatePublish=true prefix keeps the subtest ids stable
		// for the recorded test floor; there is no other leg.
		t.Run(fmt.Sprintf("updatePublish=true/delta=%v", deltaSnap), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				runReadLatestOracle(t, deltaSnap, int64(seed))
			}
		})
	}
}

func runReadLatestOracle(t *testing.T, deltaSnap bool, seed int64) {
	t.Helper()
	const nprocs = 3
	const perProc = 16
	chain := 1
	if deltaSnap {
		chain = 3
	}
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := core.New(pool, objects.OrderedMapSpec{}, core.Config{
		NProcs: nprocs, Gate: ctl, ReadFastPath: true,
		CompactEvery: 6, LogCapacity: 512,
		MaxDeltaChain: chain,
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalInserts atomic.Uint64
	outcomes := make([]<-chan any, nprocs)
	for pid := 0; pid < nprocs; pid++ {
		pid := pid
		outcomes[pid] = ctl.Spawn(pid, func() {
			h := in.Handle(pid)
			rng := rand.New(rand.NewSource(seed*2689 + int64(pid)))
			base := uint64(pid+1) << 20 // private fresh-key region
			var minted uint64           // keys written so far (values = key*3+seq)
			var sizeSeen uint64
			for i := 0; i < perProc; i++ {
				switch {
				case rng.Intn(100) < 35:
					minted++
					k := base + minted
					if _, _, err := h.Update(objects.OMapPut, k, k*3+minted); err != nil {
						panic(fmt.Sprintf("put: %v", err))
					}
					totalInserts.Add(1)
				case minted > 0:
					// Recency read: rank skewed toward the newest insert.
					r := uint64(rng.Intn(int(minted)))*uint64(rng.Intn(2)) + 1
					k := base + minted - (r - 1)
					want := k*3 + (minted - (r - 1))
					if got := h.Read(objects.OMapGet, k); got != want {
						t.Errorf("seed=%d delta=%v p%d: get(own %#x) = %d, want %d (read-your-writes violated)",
							seed, deltaSnap, pid, k, got, want)
					}
				default:
					got := h.Read(objects.OMapLen)
					if got < sizeSeen {
						t.Errorf("seed=%d delta=%v p%d: len %d after observing %d (view regressed)",
							seed, deltaSnap, pid, got, sizeSeen)
					}
					sizeSeen = got
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, 0, nprocs)
	for {
		live = live[:0]
		for pid := 0; pid < nprocs; pid++ {
			if !ctl.Done(pid) {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			break
		}
		ctl.StepN(live[rng.Intn(len(live))], 1)
	}
	for _, ch := range outcomes {
		if r := <-ch; r != nil {
			t.Fatalf("seed=%d delta=%v: process failed: %v", seed, deltaSnap, r)
		}
	}
	if got, want := in.Handle(0).Read(objects.OMapLen), totalInserts.Load(); got != want {
		t.Fatalf("seed=%d delta=%v: final size %d, want %d inserts", seed, deltaSnap, got, want)
	}
}

// TestDurableReadOracleCrashes drives the fast path through the
// deterministic crash sweep: seeded interleavings crashed at several
// points, recovered, and checked against Definition 5.6 — with the
// fast path on in both eras, so epoch state is rebuilt from a recovered
// trace rather than a live one.
func TestDurableReadOracleCrashes(t *testing.T) {
	schedSeeds := 3
	if testing.Short() {
		schedSeeds = 2
	}
	runs, err := Sweep(Config{
		Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 5, UpdatePct: 50,
		WorkSeed: 11, Core: core.Config{CompactEvery: 4, ReadFastPath: true},
	}, schedSeeds, []int{25, 60, 90})
	if err != nil {
		t.Fatalf("after %d validated runs: %v", runs, err)
	}
	if runs == 0 {
		t.Fatal("sweep validated nothing")
	}
}
