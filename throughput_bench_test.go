package onll

// BenchmarkThroughput is the parallel throughput suite: it drives one
// goroutine per simulated process against a single shared instance and
// reports ops/sec, allocs/op and pfences/op as the process count scales
// over 1/2/4/8. Unlike the E-series benchmarks (which regenerate the
// paper's tables), this suite measures the simulator substrate itself:
// it is the regression guard for the sharded-pool and allocation-free
// replay work. `-cpu 1,2,4` adds the GOMAXPROCS axis.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
	"repro/shard"
)

// throughputProcs are the scaling points of the suite, up to the full
// pid space (sched.MaxPids = core.MaxProcs = 64).
var throughputProcs = []int{1, 2, 4, 8, 16, 32, 64}

// throughputConfig is the pipeline bench/config.go prices, sized for
// nprocs simulated processes.
func throughputConfig(nprocs int) core.Config {
	return core.Config{
		NProcs:         nprocs,
		LogCapacity:    workload.ThroughputLogCapacity(nprocs),
		ReadFastPath:   true,
		DeltaSnapshots: true,
	}
}

// throughputPoolSize returns a pool size that fits nprocs logs and a
// map that grows by inserts keys during the run (mix D; 0 elsewhere).
// Every process's log re-bases on the grown state (regions doubled on
// each regrowth, the outgrown ones leaked by the bump allocator), so the
// need scales with nprocs × inserts and any fixed size runs out at some
// -benchtime: 64 B per inserted key per process is ~2.4× the 27 B
// measured at p64. The logs themselves take under a quarter of the
// fixed size (17 of 128 MiB at p64), so a run whose growth fits in the
// rest keeps the fixed size — and with it the pages the N=1 probe run
// already faulted in: a pool of a new size is fresh memory, and its
// first-touch faults land in the timed window (ycsb-d_p4, 3M ops:
// 7.7M → 5.7M ops/s).
func throughputPoolSize(nprocs, inserts int) int {
	size := workload.ThroughputPoolBytes(nprocs)
	if need := size/4 + nprocs*inserts*64; need > size {
		return need
	}
	return size
}

// runThroughput drives nprocs goroutine-backed handles for per ops each
// (updatePct percent updates, rest reads) and returns total ops done.
func runThroughput(b *testing.B, in *core.Instance, nprocs, per, updatePct int) int {
	b.Helper()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < per; i++ {
				if i%100 < updatePct {
					if _, _, err := h.Update(objects.CounterInc); err != nil {
						panic(err)
					}
				} else {
					h.Read(objects.CounterGet)
				}
			}
		}(pid)
	}
	wg.Wait()
	return per * nprocs
}

func benchThroughput(b *testing.B, nprocs, updatePct int) {
	b.Helper()
	pool := pmem.New(throughputPoolSize(nprocs, 0), nil)
	in, err := core.New(pool, objects.CounterSpec{}, throughputConfig(nprocs))
	if err != nil {
		b.Fatal(err)
	}
	pool.ResetStats()
	per := b.N/nprocs + 1
	updates := 0
	for i := 0; i < per; i++ {
		if i%100 < updatePct {
			updates++
		}
	}
	updates *= nprocs
	b.ReportAllocs()
	b.ResetTimer()
	total := runThroughput(b, in, nprocs, per, updatePct)
	b.StopTimer()
	tot := pool.TotalStats()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ops/sec")
	if updates > 0 {
		b.ReportMetric(float64(tot.PersistentFences)/float64(updates), "pfences/op")
	}
}

// BenchmarkThroughput: update-only scaling (the paper's expensive path).
func BenchmarkThroughput(b *testing.B) {
	for _, nprocs := range throughputProcs {
		b.Run(fmt.Sprintf("updates_p%d", nprocs), func(b *testing.B) {
			benchThroughput(b, nprocs, 100)
		})
	}
	for _, nprocs := range throughputProcs {
		b.Run(fmt.Sprintf("mixed50_p%d", nprocs), func(b *testing.B) {
			benchThroughput(b, nprocs, 50)
		})
	}
}

// BenchmarkThroughputYCSB drives the five YCSB mixes (zipfian keys over
// the ordered map — the index-tree-shaped object) at each scaling
// point: A = 50/50 get/put, B = 95/5 read-mostly, C = read-only, D =
// read-latest (reads chase the insert frontier, so every cached view is
// a few updates stale), E = order queries (floor/ceil/select) plus
// inserts. The map is preloaded with the key space, as YCSB loads its
// dataset, so read-heavy mixes hit a populated index.
func BenchmarkThroughputYCSB(b *testing.B) {
	mixes := []workload.YCSBWorkload{workload.YCSBA, workload.YCSBB, workload.YCSBC, workload.YCSBD, workload.YCSBE}
	for _, mix := range mixes {
		for _, nprocs := range throughputProcs {
			b.Run(fmt.Sprintf("%s_p%d", mix, nprocs), func(b *testing.B) {
				inserts := 0
				if mix == workload.YCSBD {
					inserts = b.N * workload.NewYCSB(mix).UpdatePct() / 100
				}
				pool := pmem.New(throughputPoolSize(nprocs, inserts), nil)
				in, err := core.New(pool, objects.OrderedMapSpec{}, throughputConfig(nprocs))
				if err != nil {
					b.Fatal(err)
				}
				benchYCSB(b, pool, mix, nprocs, func(pid int) workload.Handle { return in.Handle(pid) })
			})
		}
	}
}

// BenchmarkThroughputSharded drives 4 handles over 1, 2 and 4 shards of
// one pool (repro/shard): the composed handle routes each keyed op to
// its partition, and the read-only mix must stay fence-free through the
// router.
func BenchmarkThroughputSharded(b *testing.B) {
	const nprocs = 4
	for _, mix := range []workload.YCSBWorkload{workload.YCSBA, workload.YCSBC} {
		for _, nshards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s_s%d", mix, nshards), func(b *testing.B) {
				pool := pmem.New(throughputPoolSize(nprocs, 0)*nshards, nil)
				in, err := shard.Open(pool, objects.OrderedMapSpec{}, shard.Config{Shards: nshards, Base: throughputConfig(nprocs)})
				if err != nil {
					b.Fatal(err)
				}
				benchYCSB(b, pool, mix, nprocs, func(pid int) workload.Handle { return in.Handle(pid) })
			})
		}
	}
}

// benchYCSB preloads the key space through handle(0), then times nprocs
// goroutines each running its own stream of mix; a read-only mix fails
// on any persistent fence. A worker's error (pool or log exhaustion)
// fails the benchmark from this goroutine instead of killing the binary.
func benchYCSB(b *testing.B, pool *pmem.Pool, mix workload.YCSBWorkload, nprocs int, handle func(pid int) workload.Handle) {
	b.Helper()
	y := workload.NewYCSB(mix)
	if err := y.Preload(handle(0)); err != nil {
		b.Fatal(err)
	}
	per := b.N/nprocs + 1
	streams, updates := y.Streams(nprocs, per)
	errs := make([]error, nprocs)
	pool.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			errs[pid] = workload.RunSteps(handle(pid), streams[pid])
		}(pid)
	}
	wg.Wait()
	b.StopTimer()
	for pid, err := range errs {
		if err != nil {
			b.Fatalf("%s p%d of %d: %v (pool %d MiB, b.N %d)", mix, pid, nprocs, err, pool.Size()>>20, b.N)
		}
	}
	tot := pool.TotalStats()
	b.ReportMetric(float64(per*nprocs)/b.Elapsed().Seconds(), "ops/sec")
	if updates > 0 {
		b.ReportMetric(float64(tot.PersistentFences)/float64(updates), "pfences/op")
	} else if tot.PersistentFences > 0 {
		b.Fatalf("%s: %d persistent fences on a read-only mix", mix, tot.PersistentFences)
	}
}

// BenchmarkThroughputPmem measures the raw pool substrate with no
// construction on top: each simulated process persists its own disjoint
// cache line in a store/flush/fence loop — the plog append pattern.
func BenchmarkThroughputPmem(b *testing.B) {
	for _, nprocs := range throughputProcs {
		b.Run(fmt.Sprintf("persist_p%d", nprocs), func(b *testing.B) {
			pool := pmem.New(1<<22, nil)
			addrs := make([]pmem.Addr, nprocs)
			for pid := range addrs {
				addrs[pid] = pool.MustAlloc(pmem.LineSize)
			}
			per := b.N/nprocs + 1
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for pid := 0; pid < nprocs; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					a := addrs[pid]
					for i := 0; i < per; i++ {
						pool.Store(pid, a, uint64(i))
						pool.Persist(pid, a, pmem.WordSize)
					}
				}(pid)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(per*nprocs)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// BenchmarkReadSteadyState pins the allocation-free claim for reads: a
// counter with local views, fully caught up, must read at 0 allocs/op.
func BenchmarkReadSteadyState(b *testing.B) {
	pool := pmem.New(benchPool, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 1, LocalViews: true})
	if err != nil {
		b.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 1000; i++ {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := h.Read(objects.CounterGet); got != 1000 {
			b.Fatalf("read %d", got)
		}
	}
}
