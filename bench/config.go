package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// The one configuration the benchmark prices: the full pipeline every
// earlier PR converged on. This file is the only place a core.Config
// or server.Config literal appears, so a later PR that retires a knob
// fixes the bench in one line. The bench never reads the ONLL_*
// environment switches.

const (
	keySpace   = 1024  // hot key space of every workload but lib-churn
	churnKeys  = 65536 // lib-churn live window: 1 MiB of ordered-map state
	zipfTheta  = 1.01  // math/rand's closest stand-in for YCSB's 0.99
	cycleLen   = 1 << 16
	logCap     = 4096
	svcNProcs  = 4 // 1 batcher + 3 read handles
	svcBatch   = 64
	svcMaxWait = 200 * time.Microsecond
	svcWindow  = 8 // outstanding requests per connection, closed loop
	// timingCap is the server-side timing ring of a traced run; an
	// untraced run disarms the ring (and its clock reads) with -1.
	timingCap = 1 << 18
	// latencyLimitUs is the open-loop ladder's p99 limit.
	latencyLimitUs = 20000.0
	// refRate is the open-loop reference rung; percentiles and
	// ops_per_s of svc-open-mixed are taken here.
	refRate = 20000.0
)

// ladder is the open-loop rate ladder of the traced svc-open-mixed run.
// On the seed the server passes 320k and, most runs, 640k; the
// one-thread generator cannot keep the schedule of the last rung, which
// is there so that the ladder has a rung that fails.
var ladder = []float64{20000, 40000, 80000, 160000, 320000, 640000, 1280000}

// poolBytes sizes the simulated NVM per workload. Pool.Crash scans the
// whole cache, so pools are as small as a 60 s run allows: four logs
// take 10 MB, and the allocation growth measured on the seed is 0.06 B
// per update on lib-update and 12 B per update on lib-churn
// (pmem.alloc_bytes_per_update is the leak detector: a leak shows
// there long before a pool this size is exhausted).
func poolBytes(churn bool) int {
	if churn {
		return 1 << 26
	}
	return 1 << 25
}

// nWorkers is the number of load-generating workers (lib) or
// connections (svc): the bench shares its CPUs with the program.
func nWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// libConfig is the instance configuration of the in-process workloads
// and the layer probes.
func libConfig(nprocs int) core.Config {
	return core.Config{
		NProcs:         nprocs,
		LogCapacity:    logCap,
		ReadFastPath:   true,
		DeltaSnapshots: true,
	}
}

// svcCoreConfig is the instance configuration behind the server: the
// batch record must hold MaxBatch ops plus the helping tail.
func svcCoreConfig() core.Config {
	cfg := libConfig(svcNProcs)
	cfg.LogMaxOps = svcNProcs + svcBatch
	return cfg
}

// svcConfig is the server configuration; traced arms the timing ring.
func svcConfig(traced bool) server.Config {
	tc := -1
	if traced {
		tc = timingCap
	}
	return server.Config{
		Batcher:   server.BatcherConfig{MaxBatch: svcBatch, MaxWait: svcMaxWait},
		TimingCap: tc,
	}
}
