// Command onllbench regenerates every experiment table of the
// reproduction (see DESIGN.md §4 and EXPERIMENTS.md): fence counts,
// lower-bound executions, crash-injection sweeps, baseline comparisons,
// read scaling, reclamation and recovery.
//
// Usage:
//
//	onllbench [-exp all|e1|e2|...|e13] [-procs 4] [-ops 2000] [-seed 1]
//
// Throughput and latency are not measured here: `go test -bench
// BenchmarkThroughput .` and bench/ do that (EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ablation"
	"repro/internal/baselines"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/figure1"
	"repro/internal/lowerbound"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

var (
	expFlag   = flag.String("exp", "all", "experiment to run (all, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13)")
	procsFlag = flag.Int("procs", 4, "maximum process count for sweeps")
	opsFlag   = flag.Int("ops", 2000, "operations per process")
	seedFlag  = flag.Int64("seed", 1, "workload seed")
)

const poolSize = 1 << 27

// poolFor sizes a pool for nprocs per-process logs of logCap slots:
// slot width scales with the fuzzy-window bound (= nprocs), so wide
// `-procs` sweeps outgrow the fixed default.
func poolFor(nprocs, logCap int) int {
	need := nprocs*plog.RegionBytes(logCap, nprocs)*2 + (1 << 22)
	if need < poolSize {
		return poolSize
	}
	return need
}

func main() {
	flag.Parse()
	exps := map[string]func() error{
		"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6,
		"e7": e7, "e8": e8, "e9": e9, "e10": e10, "e11": e11, "e12": e12,
		"e13": e13,
	}
	var names []string
	if *expFlag == "all" {
		for k := range exps {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := names[i], names[j]
			if len(a) != len(b) {
				return len(a) < len(b)
			}
			return a < b
		})
	} else {
		names = strings.Split(*expFlag, ",")
	}
	for _, n := range names {
		fn, ok := exps[strings.TrimSpace(n)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", n)
			os.Exit(2)
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// row prints an aligned table row.
func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	for i, p := range parts {
		if i == 0 {
			fmt.Printf("%-26s", p)
		} else {
			fmt.Printf("  %16s", p)
		}
	}
	fmt.Println()
}

// runConcurrent drives an Object with nprocs goroutines over seeded
// streams and returns elapsed time plus (updates, reads) executed.
func runConcurrent(obj baselines.Object, sp spec.Spec, nprocs, opsPerProc, updatePct int, seed int64) (time.Duration, int, int) {
	gen := workload.NewGenerator(sp)
	streams := make([][]workload.Step, nprocs)
	updates, reads := 0, 0
	for pid := range streams {
		streams[pid] = gen.Stream(seed+int64(pid)*7919, opsPerProc, updatePct)
		for _, st := range streams[pid] {
			if st.IsUpdate {
				updates++
			} else {
				reads++
			}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for _, st := range streams[pid] {
				if st.IsUpdate {
					if _, err := obj.Update(pid, st.Code, st.Args...); err != nil {
						panic(err)
					}
				} else {
					obj.Read(pid, st.Code, st.Args...)
				}
			}
		}(pid)
	}
	wg.Wait()
	return time.Since(start), updates, reads
}

// e1: Theorem 5.1 — persistent fences per operation, every object,
// 1..procs processes, lock-free and wait-free orderings, without
// compaction (the paper's construction) and with base+delta-chain cuts.
func e1() error {
	header("E1 (Theorem 5.1): persistent fences per ONLL operation")
	row("object/procs/variant", "updates", "pfences", "pf/update", "pf/read")
	for _, sp := range objects.All() {
		for _, nprocs := range []int{1, *procsFlag} {
			for _, wf := range []bool{false, true} {
				for _, delta := range []bool{false, true} {
					pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
					cfg := core.Config{NProcs: nprocs, WaitFree: wf, LogCapacity: *opsFlag*2 + 64}
					variant := "lockfree"
					if wf {
						variant = "waitfree"
					}
					if delta {
						cfg.DeltaSnapshots, cfg.CompactEvery = true, 8
						variant += "+cuts"
					}
					in, err := core.New(pool, sp, cfg)
					if err != nil {
						return err
					}
					pool.ResetStats()
					obj := baselines.ONLLAdapter{In: in}
					_, updates, _ := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 80, *seedFlag)
					tot := pool.TotalStats()
					label := fmt.Sprintf("%s/%d/%s", sp.Name(), nprocs, variant)
					pfPerUpd := float64(tot.PersistentFences) / float64(updates)
					row(label, updates, tot.PersistentFences, fmt.Sprintf("%.4f", pfPerUpd),
						fmt.Sprintf("%.4f", 0.0))
					// The pin: one fence per update, zero per read, plus
					// exactly two per compaction cut (chain append +
					// truncate) in the variant that cuts.
					st := in.CompactionStats()
					cuts := st.Bases + st.Deltas
					if (cuts > 0) != delta {
						return fmt.Errorf("e1: %s: %d compaction cuts", label, cuts)
					}
					want := uint64(updates) + 2*cuts
					if tot.PersistentFences != want {
						return fmt.Errorf("e1: %s: %d pfences for %d updates (want %d)", label, tot.PersistentFences, updates, want)
					}
				}
			}
		}
	}
	fmt.Println("PASS: exactly one persistent fence per update (+ two per delta-chain cut), zero per read, all objects")
	return nil
}

// e2: Theorem 6.3 — the constructed lower-bound executions.
func e2() error {
	header("E2 (Theorem 6.3): lower-bound executions (every process fences)")
	row("case/object", "n", "pfences/proc", "satisfied", "tight")
	for _, n := range []int{2, 4, *procsFlag * 2} {
		r1, err := lowerbound.Case1(n, false)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("case1/%s", r1.Object), n, fmt.Sprint(r1.PFences), r1.Satisfied(), r1.Tight())
		r2, err := lowerbound.Case2(n, false)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("case2/%s", r2.Object), n, fmt.Sprint(r2.PFences), r2.Satisfied(), r2.Tight())
		if !r1.Satisfied() || !r2.Satisfied() {
			return fmt.Errorf("e2: lower bound violated")
		}
	}
	rec, err := lowerbound.CrashArgument()
	if err != nil {
		return err
	}
	fmt.Printf("crash-before-fence argument: recovery found %d ops (op correctly lost)\n", rec)
	fmt.Println("PASS: in the adversarial schedule every process issues >=1 persistent fence")
	return nil
}

// e3: Figure 1 walkthrough.
func e3() error {
	header("E3 (Figure 1): the four worked executions of the ONLL counter")
	lines, err := figure1.All()
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		return err
	}
	fmt.Println("PASS: all intermediate and final values match Figure 1")
	return nil
}

// e4: Proposition 5.2 — the fuzzy window never exceeds MAX_PROCESSES.
func e4() error {
	header("E4 (Prop 5.2 / Fig 2): fuzzy window bounded by MAX_PROCESSES")
	nprocs := *procsFlag
	pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: nprocs, LogCapacity: *opsFlag*2 + 64})
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	maxRun := 0
	var mu sync.Mutex
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			run := 0
			for cur := in.Trace().Tail(nprocs - 1); cur != nil; cur = cur.Next() {
				if cur.Available() {
					break
				}
				run++
			}
			mu.Lock()
			if run > maxRun {
				maxRun = run
			}
			mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs-1; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < *opsFlag; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	row("updaters", nprocs-1)
	row("max observed fuzzy window", maxRun)
	row("bound (MAX_PROCESSES)", nprocs)
	if maxRun > nprocs {
		return fmt.Errorf("e4: fuzzy window %d exceeded bound %d", maxRun, nprocs)
	}
	fmt.Println("PASS: fuzzy window within the Proposition 5.2 bound")
	return nil
}

// e5: randomized crash injection validated against Definition 5.6.
func e5() error {
	header("E5 (Lemma 5.7): randomized crash injection, durable linearizability")
	specs := []spec.Spec{objects.CounterSpec{}, objects.MapSpec{}, objects.QueueSpec{}, objects.BankSpec{}}
	runs := 0
	for _, sp := range specs {
		for seed := *seedFlag; seed < *seedFlag+4; seed++ {
			probe, err := check.RunLive(check.HarnessConfig{
				Spec: sp, NProcs: 3, OpsPerProc: 25, UpdatePct: 70, Seed: seed,
			})
			if err != nil {
				return err
			}
			for _, frac := range []uint64{10, 30, 50, 70, 90} {
				crash := probe.Steps * frac / 100
				if crash == 0 {
					crash = 1
				}
				for oi, oracle := range []pmem.Oracle{pmem.DropAll, pmem.KeepAll, pmem.SeededOracle(uint64(seed), 1, 2)} {
					if _, err := check.RunCrash(check.HarnessConfig{
						Spec: sp, NProcs: 3, OpsPerProc: 25, UpdatePct: 70,
						Seed: seed, CrashStep: crash, Oracle: oracle,
					}); err != nil {
						return fmt.Errorf("%s seed=%d crash@%d%% oracle=%d: %w", sp.Name(), seed, frac, oi, err)
					}
					runs++
				}
			}
		}
	}
	row("crash-injection runs validated", runs)
	fmt.Println("PASS: every recovered state is a consistent cut with correct return values")
	return nil
}

// e6: ONLL vs flat combining vs eager vs naive — fences and throughput.
func e6() error {
	header("E6 (Section 8): ONLL vs flat combining vs eager vs naive")
	row("impl/procs", "ops", "pfences", "pf/op", "ns/op")
	sp := objects.CounterSpec{}
	for _, nprocs := range []int{1, 2, *procsFlag} {
		type mk struct {
			name string
			make func(pool *pmem.Pool) (baselines.Object, error)
		}
		impls := []mk{
			{"onll", func(pool *pmem.Pool) (baselines.Object, error) {
				in, err := core.New(pool, sp, core.Config{NProcs: nprocs, LocalViews: true, LogCapacity: *opsFlag*2 + 64})
				return baselines.ONLLAdapter{In: in}, err
			}},
			{"flatcombining", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewFlatCombining(pool, sp, nprocs, *opsFlag*2+64)
			}},
			{"eager", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewEager(pool, sp, nprocs)
			}},
			{"naive", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewNaive(pool, sp, 1<<10)
			}},
		}
		for _, im := range impls {
			pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
			obj, err := im.make(pool)
			if err != nil {
				return err
			}
			pool.ResetStats()
			elapsed, updates, reads := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 80, *seedFlag)
			tot := pool.TotalStats()
			ops := updates + reads
			row(fmt.Sprintf("%s/%d", im.name, nprocs), ops, tot.PersistentFences,
				fmt.Sprintf("%.3f", float64(tot.PersistentFences)/float64(updates)),
				fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(ops)))
		}
	}
	fmt.Println("NOTE: flat combining can amortize below 1 pf/update but is blocking;")
	fmt.Println("      eager pays 2 pf/update; naive pays O(state) pf/update.")
	return nil
}

// e7: fence-ordering comparison — ONLL (persist->linearize) vs eager
// (persist->linearize->persist), including read costs.
func e7() error {
	header("E7 (Sections 3.1/7): fence ordering — ONLL vs eager transform")
	row("impl", "pf/update", "fences/read(any)", "note")
	sp := objects.CounterSpec{}
	const n = 500

	poolA := pmem.New(poolSize, nil)
	inA, err := core.New(poolA, sp, core.Config{NProcs: 2, LocalViews: true, LogCapacity: 2*n + 64})
	if err != nil {
		return err
	}
	poolA.ResetStats()
	hA := inA.Handle(0)
	rA := inA.Handle(1)
	for i := 0; i < n; i++ {
		if _, _, err := hA.Update(objects.CounterInc); err != nil {
			return err
		}
		rA.Read(objects.CounterGet)
	}
	stU, stR := poolA.StatsOf(0), poolA.StatsOf(1)
	row("onll", fmt.Sprintf("%.3f", float64(stU.PersistentFences)/n),
		fmt.Sprintf("%.3f", float64(stR.Fences+stR.PersistentFences)/n),
		"linearize after persist")

	poolB := pmem.New(poolSize, nil)
	eg, err := baselines.NewEager(poolB, sp, 2)
	if err != nil {
		return err
	}
	poolB.ResetStats()
	for i := 0; i < n; i++ {
		if _, err := eg.Update(0, objects.CounterInc); err != nil {
			return err
		}
		eg.Read(1, objects.CounterGet)
	}
	stU, stR = poolB.StatsOf(0), poolB.StatsOf(1)
	row("eager", fmt.Sprintf("%.3f", float64(stU.PersistentFences)/n),
		fmt.Sprintf("%.3f", float64(stR.Fences+stR.PersistentFences)/n),
		"persist linearization too")
	fmt.Println("PASS: ONLL halves update fences and eliminates reader fences")
	return nil
}

// e8: read cost vs history length, with and without local views.
func e8() error {
	header("E8 (Section 8): read latency vs history length (local views)")
	row("history/variant", "reads", "ns/read")
	for _, histLen := range []int{100, 1000, 10000} {
		for _, lv := range []bool{false, true} {
			pool := pmem.New(poolSize, nil)
			in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 1, LocalViews: lv, LogCapacity: histLen*2 + 64})
			if err != nil {
				return err
			}
			h := in.Handle(0)
			for i := 0; i < histLen; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					return err
				}
			}
			const reads = 2000
			start := time.Now()
			for i := 0; i < reads; i++ {
				h.Read(objects.CounterGet)
			}
			el := time.Since(start)
			variant := "replay-all"
			if lv {
				variant = "local-views"
			}
			row(fmt.Sprintf("%d/%s", histLen, variant), reads,
				fmt.Sprintf("%.0f", float64(el.Nanoseconds())/reads))
		}
	}
	fmt.Println("NOTE: replay-all reads scale with history length; local-view reads do not.")
	return nil
}

// e9: memory reclamation via compaction.
func e9() error {
	header("E9 (Section 8): compaction bounds log and trace growth")
	row("variant", "ops", "live log recs", "trace nodes", "extra pf")
	const n = 5000
	for _, ce := range []int{0, 64} {
		pool := pmem.New(poolSize, nil)
		in, err := core.New(pool, objects.CounterSpec{}, core.Config{
			NProcs: 1, LocalViews: true, CompactEvery: ce, LogCapacity: 2*n + 64,
		})
		if err != nil {
			return err
		}
		pool.ResetStats()
		h := in.Handle(0)
		for i := 0; i < n; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				return err
			}
		}
		nodes := 0
		for cur := in.Trace().Tail(0); cur != nil && cur.Kind == trace.KindUpdate; cur = cur.Next() {
			nodes++
		}
		variant := "no-compaction"
		if ce > 0 {
			variant = fmt.Sprintf("compact-every-%d", ce)
		}
		row(variant, n, in.Log(0).Len(), nodes, pool.StatsOf(0).PersistentFences-uint64(n))
	}
	fmt.Println("PASS: with compaction, live records and reachable trace nodes stay bounded")
	return nil
}

// e10: recovery cost vs surviving history size.
func e10() error {
	header("E10 (Listing 5): recovery time and correctness vs history size")
	row("ops", "recovered", "recovery time")
	for _, n := range []int{100, 1000, 10000} {
		pool := pmem.New(poolSize, nil)
		in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, LogCapacity: 2*n + 64})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for pid := 0; pid < 2; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				h := in.Handle(pid)
				for i := 0; i < n/2; i++ {
					if _, _, err := h.Update(objects.CounterInc); err != nil {
						panic(err)
					}
				}
			}(pid)
		}
		wg.Wait()
		pool.Crash(pmem.DropAll)
		start := time.Now()
		in2, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
		if err != nil {
			return err
		}
		el := time.Since(start)
		if got := in2.Handle(0).Read(objects.CounterGet); got != uint64(n)/2*2 {
			return fmt.Errorf("e10: post-recovery value %d, want %d", got, n)
		}
		row(n, rep.LastIdx, el)
	}
	fmt.Println("PASS: recovery reconstructs the full completed history, linear in log size")
	return nil
}

// e11: lock-freedom — a stalled process blocks nobody.
func e11() error {
	header("E11 (Lemma 5.3): lock-freedom under a stalled process")
	ctl := sched.NewController()
	pool := pmem.New(poolSize, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, Gate: ctl})
	if err != nil {
		return err
	}
	ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
	if _, ok := ctl.RunUntil(0, sched.AtPoint(core.PointOrdered)); !ok {
		return fmt.Errorf("e11: p0 finished early")
	}
	completed := 0
	done := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < 100; i++ {
			if _, _, err := h.Update(objects.CounterInc); err == nil {
				completed++
			}
			h.Read(objects.CounterGet)
		}
	})
	ctl.RunToCompletion(1)
	<-done
	ctl.KillAll()
	row("p0 state", "stalled mid-update (ordered, not persisted)")
	row("p1 updates completed", completed)
	row("p1 reads completed", 100)
	if completed != 100 {
		return fmt.Errorf("e11: p1 blocked: %d/100", completed)
	}
	fmt.Println("PASS: progress is independent of the stalled process")
	return nil
}

// e13: ablations — remove a Section 3.1 design decision and watch the
// durability checker catch the resulting violation.
func e13() error {
	header("E13 (Section 3.1): ablations — the design decisions are load-bearing")
	type runner struct {
		name       string
		run        func() (*ablation.Outcome, error)
		wantBroken bool
	}
	for _, r := range []runner{
		{"control (real construction)", ablation.Control, false},
		{"no helping in the persist stage", ablation.NoHelping, true},
		{"linearize before persist", ablation.LinearizeFirst, true},
	} {
		out, err := r.run()
		if err != nil {
			return err
		}
		if r.wantBroken {
			if out.Violation == nil {
				return fmt.Errorf("e13: ablation %q did not violate durability", r.name)
			}
			row(r.name, "VIOLATES durability")
			fmt.Printf("    checker: %v\n", out.Violation)
		} else {
			if out.Violation != nil {
				return fmt.Errorf("e13: control violated durability: %v", out.Violation)
			}
			row(r.name, "durable (as proved)")
		}
	}
	fmt.Println("PASS: each removed decision produces the exact contradiction of Section 3.1")
	return nil
}

// e12: the wait-free ordering variant.
func e12() error {
	header("E12 (Section 8): wait-free execution trace variant")
	row("variant/procs", "updates", "pf/update", "ns/op")
	sp := objects.CounterSpec{}
	for _, wf := range []bool{false, true} {
		nprocs := *procsFlag
		pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
		in, err := core.New(pool, sp, core.Config{NProcs: nprocs, WaitFree: wf, LogCapacity: *opsFlag*2 + 64})
		if err != nil {
			return err
		}
		pool.ResetStats()
		obj := baselines.ONLLAdapter{In: in}
		elapsed, updates, _ := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 100, *seedFlag)
		tot := pool.TotalStats()
		variant := "lockfree"
		if wf {
			variant = "waitfree"
		}
		row(fmt.Sprintf("%s/%d", variant, nprocs), updates,
			fmt.Sprintf("%.3f", float64(tot.PersistentFences)/float64(updates)),
			fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(updates)))
		if tot.PersistentFences != uint64(updates) {
			return fmt.Errorf("e12: fence count off: %d != %d", tot.PersistentFences, updates)
		}
	}
	fmt.Println("PASS: the wait-free variant preserves the one-fence bound")
	return nil
}
