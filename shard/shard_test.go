package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// baseCfg is the per-shard template most tests use: local views, a
// tight full-snapshot compaction cadence and the read fast path, so the
// composition is exercised with cuts landing mid-test.
func baseCfg(nprocs int) core.Config {
	return core.Config{
		NProcs: nprocs, LogCapacity: 1 << 10, CompactEvery: 64, ReadFastPath: true,
	}
}

// TestShardRoutingAndReadYourWrites drives a sharded map through every
// composed surface: keyed updates and reads route consistently (a key
// always meets the shard holding its value — otherwise gets after puts
// would miss), read-your-writes holds through the router, aggregate
// reads compose via ReadSum, and the hash actually spreads a dense
// keyspace over every partition.
func TestShardRoutingAndReadYourWrites(t *testing.T) {
	const shards = 4
	pool := pmem.New(1<<24, nil)
	in, err := Open(pool, objects.MapSpec{}, Config{Shards: shards, Base: baseCfg(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		if _, _, err := h.Update(objects.MapPut, k, k*3+1); err != nil {
			t.Fatal(err)
		}
		// Read-your-writes through the router: the get must meet the
		// shard the put just landed on.
		if got := h.Read(objects.MapGet, k); got != k*3+1 {
			t.Fatalf("key %d: read-your-writes broken through router: got %d", k, got)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if got := h.Read(objects.MapGet, k); got != k*3+1 {
			t.Fatalf("key %d routed to a different shard on re-read: got %d", k, got)
		}
	}
	if got := h.ReadSum(objects.MapLen); got != keys {
		t.Fatalf("ReadSum(MapLen) = %d, want %d", got, keys)
	}
	per := h.ReadEach(objects.MapLen)
	if len(per) != shards {
		t.Fatalf("ReadEach returned %d legs, want %d", len(per), shards)
	}
	for s, n := range per {
		if n == 0 {
			t.Fatalf("shard %d holds no keys: hash does not spread a dense keyspace (%v)", s, per)
		}
	}
	// Deletes route like puts.
	for k := uint64(0); k < keys; k += 2 {
		if _, _, err := h.Update(objects.MapDel, k); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.ReadSum(objects.MapLen); got != keys/2 {
		t.Fatalf("after deletes ReadSum(MapLen) = %d, want %d", got, keys/2)
	}
	if in.NShards() != shards || in.NProcs() != 2 {
		t.Fatalf("instance reports %d shards / %d procs", in.NShards(), in.NProcs())
	}
}

// TestShardOpenOverlap: the composed layout claims every shard's root
// range, so a second object colliding with ANY shard — not just shard
// 0 — fails typed, and a correctly tiled neighbour opens fine.
func TestShardOpenOverlap(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	cfg := Config{Shards: 2, Base: baseCfg(2)}
	if _, err := Open(pool, objects.MapSpec{}, cfg); err != nil {
		t.Fatal(err)
	}
	span := core.RootSpan(2)
	// Straddles shard 1's range [span, 2*span) without being identical
	// to it (an identical range is the same instance re-claiming, which
	// stays legal).
	clash := core.Config{NProcs: 2, LogCapacity: 1 << 10, RootBase: span + 1}
	if _, err := core.New(pool, objects.CounterSpec{}, clash); !errors.Is(err, core.ErrRootOverlap) {
		t.Fatalf("collision with shard 1's range gave %v, want ErrRootOverlap", err)
	}
	ok := clash
	ok.RootBase = 2 * span
	if _, err := core.New(pool, objects.CounterSpec{}, ok); err != nil {
		t.Fatalf("tiled neighbour rejected: %v", err)
	}
	// A second sharded instance whose shard 0 straddles both existing
	// claims must fail before clobbering anything.
	over := cfg
	over.Base.RootBase = 1
	if _, err := Open(pool, objects.MapSpec{}, over); !errors.Is(err, core.ErrRootOverlap) {
		t.Fatal("overlapping sharded layout accepted")
	}
}

// TestCrossShardReadOracle is the cross-shard durable-read oracle: one
// writer per shard monotonically raises per-key values while reader
// handles interleave reads ACROSS shards — each reader's observed
// value per key must never decrease (per-handle monotonicity is a
// per-shard guarantee, and routing determinism is what carries it
// through the composition: if a key ever met two shards, its value
// would regress to RetMissing). Run with -race.
func TestCrossShardReadOracle(t *testing.T) {
	const shards = 4
	const nprocs = 6 // 0..1 write, 2..5 read
	const keysPerWriter = 8
	rounds := 2_000
	if testing.Short() {
		rounds = 500
	}
	pool := pmem.New(1<<26, nil)
	in, err := Open(pool, objects.MapSpec{}, Config{Shards: shards, Base: baseCfg(nprocs)})
	if err != nil {
		t.Fatal(err)
	}
	// Writers own disjoint keys; values only grow.
	key := func(w, i int) uint64 { return uint64(w*keysPerWriter + i) }
	var wg sync.WaitGroup
	var writersLive sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		writersLive.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersLive.Done()
			h := in.Handle(w)
			for r := 1; r <= rounds; r++ {
				for i := 0; i < keysPerWriter; i++ {
					if _, _, err := h.Update(objects.MapPut, key(w, i), uint64(r)); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() { writersLive.Wait(); close(stop) }()
	for pid := 2; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			last := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(int64(pid) * 7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Hop between keys on different shards on purpose.
				k := key(rng.Intn(2), rng.Intn(keysPerWriter))
				got := h.Read(objects.MapGet, k)
				if got == spec.RetMissing {
					got = 0
				}
				if prev := last[k]; got < prev {
					t.Errorf("p%d key %d: value regressed %d -> %d (monotonicity broken across shard hops)", pid, k, prev, got)
					return
				}
				last[k] = got
			}
		}(pid)
	}
	wg.Wait()
	// Every key must have converged to its final round on its shard.
	h := in.Handle(2)
	for w := 0; w < 2; w++ {
		for i := 0; i < keysPerWriter; i++ {
			if got := h.Read(objects.MapGet, key(w, i)); got != uint64(rounds) {
				t.Fatalf("key %d settled at %d, want %d", key(w, i), got, rounds)
			}
		}
	}
}

// shardSweepIters mirrors the check package's env knob so CI can raise
// the random draws.
func shardSweepIters(def int) int {
	if s := os.Getenv("ONLL_SWEEP_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestShardCrashSweep is the shards=2 crash-injection leg: seeded op
// streams drive a sharded map through the composed router on a
// counting gate, a random global step kills every process, the ONE
// shared pool crashes under a seeded oracle, and BOTH shards recover
// from their root ranges. The detectability oracle is per key with a
// single monotone writer per key: the recovered value must be exactly
// the highest-round put that shard's report says linearized (recorded
// at issue time with the shard index, since ids are per-shard), and
// every linearized put must be covered by it. Odd iterations cut
// base+delta chains, even ones full snapshots.
func TestShardCrashSweep(t *testing.T) {
	const shards = 2
	const nprocs = 4
	const keysPerPid = 4
	iters := shardSweepIters(4)
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("iter%d", it), func(t *testing.T) {
			seed := int64(1000 + it*7919)
			rng := rand.New(rand.NewSource(seed))
			crashStep := uint64(2000 + rng.Intn(30_000))
			oracle := pmem.SeededOracle(uint64(seed), uint64(rng.Intn(3)), 2) // drop-all, 1/2, keep-all-ish
			gate := sched.NewStepCounter(crashStep, nil)
			pool := pmem.New(1<<24, nil)
			base := core.Config{
				NProcs: nprocs, LogCapacity: 1 << 10, CompactEvery: 32,
				ReadFastPath: true, Gate: gate, DeltaSnapshots: it%2 == 1,
			}
			in, err := Open(pool, objects.MapSpec{}, Config{Shards: shards, Base: base})
			if err != nil {
				t.Fatal(err)
			}
			pool.SetGate(gate)

			// One writer per key, values = round number (monotone).
			type put struct {
				shard int
				id    uint64
				round uint64
			}
			issued := make([]map[uint64][]put, nprocs) // pid -> key -> puts
			done := make(chan struct{}, nprocs)
			for pid := 0; pid < nprocs; pid++ {
				issued[pid] = map[uint64][]put{}
				go func(pid int) {
					defer func() {
						if r := recover(); r != nil && !sched.IsKilled(r) {
							panic(r)
						}
						done <- struct{}{}
					}()
					h := in.Handle(pid)
					for r := uint64(1); r <= 400; r++ {
						for i := 0; i < keysPerPid; i++ {
							k := uint64(pid*keysPerPid + i)
							s := h.ShardOf(objects.MapPut, k)
							// Record BEFORE the update: a kill mid-update
							// leaves the op pending, which the oracle
							// below treats as may-or-may-not-have-landed.
							rec := put{shard: s, id: h.On(s).NextOpID(), round: r}
							issued[pid][k] = append(issued[pid][k], rec)
							if _, _, err := h.Update(objects.MapPut, k, r); err != nil {
								panic(err)
							}
						}
					}
				}(pid)
			}
			for i := 0; i < nprocs; i++ {
				<-done
			}
			pool.Crash(oracle)
			pool.SetGate(nil)

			rbase := base
			rbase.Gate = nil
			in2, rep, err := Recover(pool, objects.MapSpec{}, Config{Shards: shards, Base: rbase})
			if err != nil {
				t.Fatalf("sharded recovery failed: %v", err)
			}
			h := in2.Handle(0)
			for pid := 0; pid < nprocs; pid++ {
				for k, puts := range issued[pid] {
					// The key's durable value must be the highest
					// linearized round; later puts must all be
					// non-linearized (a gap would break monotone replay).
					var want uint64
					for _, p := range puts {
						if _, ok := rep.WasLinearized(p.shard, p.id); ok {
							if p.round < want {
								t.Fatalf("iter %d key %d: put round %d linearized after round %d was", it, k, p.round, want)
							}
							want = p.round
						}
					}
					got := h.Read(objects.MapGet, k)
					if want == 0 {
						if got != spec.RetMissing {
							t.Fatalf("iter %d key %d: no put linearized but recovered value %d", it, k, got)
						}
						continue
					}
					if got != want {
						t.Fatalf("iter %d key %d: recovered %d, detectability says %d", it, k, got, want)
					}
				}
			}
			// The recovered composition must accept new work on every shard.
			for k := uint64(0); k < uint64(nprocs*keysPerPid); k++ {
				if _, _, err := h.Update(objects.MapPut, k, 999); err != nil {
					t.Fatalf("post-recovery update on key %d: %v", k, err)
				}
			}
		})
	}
}

// TestShardFaultIsolation targets media damage at ONE shard's log
// region (located via its log base addresses) and recovers in salvage
// mode: the composition must keep blast radius per shard — the
// undamaged shard classifies Healthy with its data intact, while the
// damaged one either salvages (Healthy/Degraded, data checked) or
// quarantines, in which case ITS updates refuse typed while the
// healthy shard keeps serving, and Recreate brings it back.
func TestShardFaultIsolation(t *testing.T) {
	const shards = 2
	pool := pmem.New(1<<24, nil)
	base := core.Config{NProcs: 2, LogCapacity: 1 << 10, CompactEvery: 32, ReadFastPath: true}
	in, err := Open(pool, objects.MapSpec{}, Config{Shards: shards, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	const keys = 64
	byShard := map[int][]uint64{}
	for k := uint64(0); k < keys; k++ {
		if _, _, err := h.Update(objects.MapPut, k, k+100); err != nil {
			t.Fatal(err)
		}
		byShard[h.ShardOf(objects.MapPut, k)] = append(byShard[h.ShardOf(objects.MapPut, k)], k)
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatal("keys did not spread over both shards")
	}
	pool.Crash(pmem.DropAll)

	// Stuck-line faults across shard 1's log region only.
	victim := in.Shard(1)
	var plan pmem.FaultPlan
	for pid := 0; pid < base.NProcs; pid++ {
		line := uint64(victim.Log(pid).Base()) / pmem.LineSize
		for i := uint64(0); i < 6; i++ {
			plan.Faults = append(plan.Faults, pmem.Fault{Class: pmem.FaultStuckLine, Line: line + i, Seed: 7*i + uint64(pid)})
		}
	}
	pool.InjectFaults(plan)

	rbase := base
	rbase.Salvage = true
	in2, rep, err := Recover(pool, objects.MapSpec{}, Config{Shards: shards, Base: rbase})
	if err != nil {
		t.Fatalf("salvaging sharded recovery failed: %v", err)
	}
	h2 := in2.Handle(0)

	// Shard 0 never took a fault: Healthy, data intact, serving.
	if mode := in2.Shard(0).Health().Mode; mode != core.ModeHealthy {
		t.Fatalf("undamaged shard 0 classified %v", mode)
	}
	for _, k := range byShard[0] {
		if got := h2.On(0).Read(objects.MapGet, k); got != k+100 {
			t.Fatalf("undamaged shard lost key %d (got %d)", k, got)
		}
	}
	if _, _, err := h2.On(0).Update(objects.MapPut, byShard[0][0], 1); err != nil {
		t.Fatalf("undamaged shard refused an update: %v", err)
	}

	mode := in2.Shard(1).Health().Mode
	t.Logf("damaged shard classified %v (salvage: %+v)", mode, rep.Shards[1].Salvage != nil)
	switch mode {
	case core.ModeHealthy, core.ModeDegraded:
		for _, k := range byShard[1] {
			if got := h2.On(1).Read(objects.MapGet, k); got != k+100 {
				t.Fatalf("salvaged shard lost key %d silently (got %d, mode %v)", k, got, mode)
			}
		}
	case core.ModeQuarantined:
		if _, _, err := h2.On(1).Update(objects.MapPut, byShard[1][0], 1); !errors.Is(err, core.ErrObjectQuarantined) {
			t.Fatalf("quarantined shard's update gave %v, want ErrObjectQuarantined", err)
		}
		if err := in2.Shard(1).Recreate(); err != nil {
			t.Fatalf("recreating quarantined shard: %v", err)
		}
		if _, _, err := h2.On(1).Update(objects.MapPut, byShard[1][0], 1); err != nil {
			t.Fatalf("recreated shard refused an update: %v", err)
		}
	default:
		t.Fatalf("unknown health mode %v", mode)
	}
}

// TestShardAggregateAllocs pins the sharded aggregate path's
// allocation profile: after warmup (fast-path views caught up, scratch
// buffer grown to the shard count), ReadSum and a reused-buffer
// ReadEachInto must not allocate per call. ReadEach without a buffer
// is the documented allocating variant.
func TestShardAggregateAllocs(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := Open(pool, objects.MapSpec{}, Config{Shards: 4, Base: baseCfg(1)})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for k := uint64(0); k < 64; k++ {
		if _, _, err := h.Update(objects.MapPut, k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the first aggregate grows the scratch buffer and walks
	// every shard's view up to date.
	for i := 0; i < 8; i++ {
		h.ReadSum(objects.MapLen)
	}
	if n := testing.AllocsPerRun(100, func() { h.ReadSum(objects.MapLen) }); n != 0 {
		t.Fatalf("ReadSum allocates %.1f per call, want 0", n)
	}
	buf := make([]uint64, 0, 4)
	if n := testing.AllocsPerRun(100, func() { buf = h.ReadEachInto(buf, objects.MapLen) }); n != 0 {
		t.Fatalf("ReadEachInto with capacity allocates %.1f per call, want 0", n)
	}
	// The Into variant agrees with the allocating one.
	each := h.ReadEach(objects.MapLen)
	var sum uint64
	for i, v := range each {
		if v != buf[i] {
			t.Fatalf("ReadEach[%d] = %d, ReadEachInto = %d", i, v, buf[i])
		}
		sum += v
	}
	if got := h.ReadSum(objects.MapLen); got != sum || got != 64 {
		t.Fatalf("ReadSum = %d, want %d (= 64 keys)", got, sum)
	}
}
