package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// workload is one traffic shape. Each exists to put the cost on a
// different set of layers, so that for every optimisation one workload
// exercises its mechanism and another bypasses it.
type workload struct {
	name string
	why  string

	svc       bool // loopback TCP through internal/server, else in-process
	updatePct int  // share of updates in the op stream
	churn     bool // lib-churn: one worker, sliding window over 65 536 keys
	open      bool // open-loop Poisson arrivals, else closed loop
	updKind   byte // svc: ack mode of the updates
}

var workloads = []workload{
	{
		name:      "lib-update",
		why:       "The paper's headline path, order-persist-linearize: trace, plog and pmem do the work, the read path none.",
		updatePct: 100,
	},
	{
		name: "lib-read",
		why:  "Epoch-hit read fast path and objects only; plog and pmem must do exactly zero work: the bypass workload for every write-path change.",
	},
	{
		name:      "lib-mixed",
		why:       "Every read follows someone's update, so reads take the slot, walk and adoption routes and updates pay publication; a lib-read gain that costs here shows.",
		updatePct: 50,
	},
	{
		name:      "lib-churn",
		why:       "1 MiB of state under insert/delete churn from one client: compaction is the work (delta cuts, collapses, snapshot cost O(state), NVM space) and recovery is deepest.",
		updatePct: 50,
		churn:     true,
	},
	{
		name: "svc-read",
		why:  "Wire codec, per-connection reader and writer goroutines and the read slot over loopback TCP; the batcher, plog and pmem are bypassed.",
		svc:  true,
	},
	{
		name:      "svc-update-persist",
		why:       "Batcher queue, Batch.Stage, Batch.Flush, fence, response: ack-on-persist latency is set by the flush trigger, so a batcher change must show here.",
		svc:       true,
		updatePct: 100,
		updKind:   kindUpdatePersist,
	},
	{
		name:      "svc-open-mixed",
		why:       "Open-loop Poisson arrivals at 20k rps, reads beside ack-on-linearize updates: independent users, latency from the due time, the saturation instrument.",
		svc:       true,
		updatePct: 50,
		open:      true,
		updKind:   kindUpdateLinearize,
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run measures the workload once for dur. tr non-nil makes it a traced
// run. spares is how many extra environments are built beside the one
// the window runs on: setup_s and recover_s are taken over all of them
// (see spareEnvs).
func (wl workload) run(seed int64, dur time.Duration, tr *tracer, spares int) (*result, error) {
	// -all and -check run many workloads in one process: start each as
	// a fresh process would, without the last one's garbage to collect
	// in the middle of set-up.
	runtime.GC()
	if wl.svc {
		return runSvc(wl, seed, dur, tr, spares)
	}
	return runLib(wl, seed, dur, tr, spares)
}

// buildGap is the pause between two builds of a run.
const buildGap = 100 * time.Millisecond

// buildEnvs sets up 1+spares environments, the main one last, and
// returns them with setup_s, the wall time in seconds of the fastest
// build. On an error it returns the environments built so far.
//
// Every build does the same work, so what makes one slower than another
// is not the program. Two things do. The Go heap: a pool allocated from
// memory a dropped environment gave back is cleared first, tens of
// megabytes of it, while one on fresh memory is not — builds that follow
// a drop took 20-30 ms for 10-16 ms — so every environment is kept to
// the end of the run and each build sets up on the heap a fresh process
// would. And the host: generating the op streams, four fifths of a
// build, runs at one of two speeds 1.6x apart, in phases of 0.1 to 2 s
// that took a third to a half of the time when this was written. The
// median of a handful of builds falls in whichever mode holds the
// majority that run (the median of 5 spread by 17-37 % over ten seeds),
// and twelve builds back to back take 0.15 s, inside one phase as often
// as not (their fastest still spread by 9-37 %). The noise only ever
// adds time, so the fastest build is the one that measured the program,
// and work moved into set-up slows the fastest too; the builds are
// buildGap apart so that over a second and more one of them meets a
// fast phase.
func buildEnvs[E any](spares int, setup func() (E, error)) (main E, spare []E, setupS float64, err error) {
	setupS = math.Inf(1)
	for i := 0; i <= spares; i++ {
		if i > 0 {
			time.Sleep(buildGap)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return main, spare, 0, err
		}
		setupS = min(setupS, time.Since(t0).Seconds())
		if i < spares {
			spare = append(spare, e)
		} else {
			main = e
		}
	}
	return main, spare, setupS, nil
}
