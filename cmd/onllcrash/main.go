// Command onllcrash demonstrates durability across REAL process
// boundaries: phase "run" executes a workload against a durable map,
// simulates a power failure (only the durable NVM image is written to
// disk, exactly as an NVDIMM would retain it), and exits. Phase
// "recover", typically a separate invocation, loads the image, runs
// ONLL recovery, verifies the recovered contents and reports
// detectability.
//
// Usage:
//
//	onllcrash -file pool.img -phase run [-ops 100] [-procs 2] [-seed 1]
//	onllcrash -file pool.img -phase recover
//	onllcrash -file pool.img -phase both   # run + recover in one go
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

var (
	fileFlag   = flag.String("file", "pool.img", "pool image path")
	phaseFlag  = flag.String("phase", "both", "run | recover | both")
	opsFlag    = flag.Int("ops", 100, "updates per process")
	procsFlag  = flag.Int("procs", 2, "process count")
	seedFlag   = flag.Int64("seed", 1, "workload seed")
	faultsFlag = flag.Int("faults", 0, "media faults to inject before recovery (salvage mode)")
	fseedFlag  = flag.Uint64("faultseed", 42, "fault plan seed")
	deltaFlag  = flag.Bool("deltasnap", false, "compact (size-aware cadence)")
)

func main() {
	flag.Parse()
	switch *phaseFlag {
	case "run":
		must(runPhase())
	case "recover":
		must(recoverPhase())
	case "both":
		must(runPhase())
		must(recoverPhase())
	default:
		fmt.Fprintf(os.Stderr, "unknown phase %q\n", *phaseFlag)
		os.Exit(2)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runPhase() error {
	pool := pmem.New(1<<26, nil)
	in, err := core.New(pool, objects.MapSpec{}, core.Config{
		NProcs: *procsFlag, LogCapacity: *opsFlag*2 + 64,
		DeltaSnapshots: *deltaFlag,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase run: %d processes x %d puts into a durable map\n", *procsFlag, *opsFlag)
	var wg sync.WaitGroup
	for pid := 0; pid < *procsFlag; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < *opsFlag; i++ {
				k := uint64(pid)<<32 | uint64(i)
				v := uint64(*seedFlag) * (k + 1)
				if _, _, err := h.Update(objects.MapPut, k, v); err != nil {
					panic(err)
				}
			}
		}(pid)
	}
	wg.Wait()
	if *deltaFlag {
		st := in.CompactionStats()
		fmt.Printf("compaction: %d base(s), %d delta(s), %d collapse(s); wrote %d words vs %d full-snapshot-equivalent\n",
			st.Bases, st.Deltas, st.Collapses, st.SnapshotWords, st.FullEquivWords)
	}
	// Power failure: volatile caches vanish; only fenced data survives.
	pool.Crash(pmem.DropAll)
	if err := pool.SaveFile(*fileFlag); err != nil {
		return err
	}
	fmt.Printf("simulated power failure; durable image written to %s\n", *fileFlag)
	return nil
}

func recoverPhase() error {
	pool, err := pmem.LoadFile(*fileFlag, nil)
	if err != nil {
		return err
	}
	cfg := core.Config{DeltaSnapshots: *deltaFlag}
	if *faultsFlag > 0 {
		// Media corruption between the crash and the reboot: a seeded
		// plan of torn lines, bit flips and stuck-at lines over the
		// allocated image (the fixed root table excluded), then
		// salvaging recovery instead of strict pass/fail.
		rootLines := uint64(pmem.RootSlots * pmem.WordSize / pmem.LineSize)
		plan := pmem.PlanFaults(*fseedFlag, *faultsFlag, rootLines, pool.AllocatedLines())
		pool.InjectFaults(plan)
		cfg.Salvage = true
		fmt.Printf("injected %d media fault(s) (seed %d)\n", len(plan.Faults), *fseedFlag)
	}
	in, rep, err := core.Recover(pool, objects.MapSpec{}, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("phase recover: %d operations recovered (base snapshot at %d)\n",
		rep.LastIdx-rep.BaseIdx, rep.BaseIdx)
	if *faultsFlag > 0 {
		health := in.Health()
		fmt.Printf("health: %v", health.Mode)
		if health.Reason != nil {
			fmt.Printf(" (%v)", health.Reason)
		}
		fmt.Printf(" — bad slots %d, orphans %d, logs unopened %d\n",
			health.BadSlots, health.Orphans, health.LogsUnopened)
		scrub := in.Scrub()
		fmt.Printf("scrub: faulty=%v over %d log(s)\n", scrub.Faulty, len(scrub.PerPid))
		if health.Mode == core.ModeQuarantined {
			// Loss was detected and typed — the opposite of silent
			// corruption. Demonstrate the escape hatch and stop (the
			// lost suffix makes content verification moot).
			if err := in.Recreate(); err != nil {
				return fmt.Errorf("recreate after quarantine: %w", err)
			}
			fmt.Printf("recreated from salvaged prefix; health now %v\n", in.Health().Mode)
			fmt.Println("recovery OK (quarantine detected, typed, recreated)")
			return nil
		}
	}
	// Process pid's seq-th update put key pid<<32 | seq-1, and its
	// updates recover as a prefix: every seq up to the highest recovered
	// must be detectable with its key holding its value, and no more.
	h := in.Handle(0)
	keys := uint64(0)
	for pid := 0; pid < in.NProcs(); pid++ {
		last := rep.PerProcessSeq[pid]
		for seq := uint64(1); seq <= last; seq++ {
			if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
				return fmt.Errorf("p%d op %d not reported linearized below recovered op %d", pid, seq, last)
			}
			k := uint64(pid)<<32 | (seq - 1)
			if v, want := h.Read(objects.MapGet, k), uint64(*seedFlag)*(k+1); v != want {
				return fmt.Errorf("key %#x recovered as %d, want %d", k, v, want)
			}
		}
		keys += last
	}
	if n := h.Read(objects.MapLen); n != keys {
		return fmt.Errorf("recovered map holds %d keys, want %d", n, keys)
	}
	fmt.Printf("verified recovered contents and detectability (%d keys)\n", keys)
	fmt.Println("recovery OK")
	return nil
}
