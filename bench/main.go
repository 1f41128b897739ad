// Command bench is the repository's benchmark: one program that prices
// a request end to end and layer by layer, on both user-facing
// surfaces — the library (onll.Open / Handle.Update / Handle.Read /
// Recover) and the service (internal/server over loopback TCP) — and
// checks at the end of every run that what it was told is what a
// crash leaves behind.
//
// The benchmark contract (BENCHMARK.json) runs it through run.sh as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object. For
// people there are three more modes:
//
//	go run ./bench -all -seed 1        every workload untraced, a traced
//	                                   pass, the layer probes, the ledger
//	go run ./bench -check -sets 2      do two sets of runs agree within
//	                                   the bounds?
//	go run ./bench -manifest           print BENCHMARK.json from the
//	                                   metric and workload registry
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

type options struct {
	seed    int64
	seconds float64
	outDir  string
}

func main() {
	var (
		opt      options
		workload = flag.String("workload", "", "run this one workload and print the contract's JSON result line")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload untraced, then a traced pass and the layer probes")
		check    = flag.Bool("check", false, "run -sets sets of every workload and compare them against the bounds")
		sets     = flag.Int("sets", 2, "with -check: how many sets")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated op streams and arrival times")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of one measured window, in seconds")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for trace files")
	flag.Parse()

	var err error
	ok := true
	switch {
	case *manifest:
		err = printManifest()
	case *all:
		ok, err = runAll(opt)
	case *check:
		ok, err = runCheck(opt, *sets)
	case *workload != "":
		ok, err = runContract(opt, *workload, *trace != 0)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func (o options) dur() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// spareEnvs is how many extra environments an untraced run builds and
// keeps beside the one the window runs on: setup_s is the fastest of the
// 12 builds (buildEnvs) and recover_s is taken over the recoveries of
// all 12 (measureRecover).
const spareEnvs = 11

// runTraced is the traced pass of one workload: a traced run of dur,
// its spans written to the output directory, the layer probes, and the
// tracing overhead against the untraced result given.
func runTraced(wl workload, opt options, dur time.Duration, untraced *result) (*result, error) {
	tr := newTracer(opt.outDir)
	res, err := wl.run(opt.seed, dur, tr, 0)
	if err != nil {
		return nil, err
	}
	probes := runProbes(opt.seed, tr)
	res.failed += probes.failed
	res.violations = append(res.violations, probes.violations...)
	res.merge(probes)
	if u, t := untraced.m["ops_per_s"], res.m["ops_per_s"]; u > 0 {
		name := "core.trace_overhead_pct"
		if wl.svc {
			name = "server.trace_overhead_pct"
		}
		res.set(name, 100*(u-t)/u)
	}
	res.set("fail_share", float64(res.failed)/float64(max(res.attempted, 1)))
	path, err := tr.write(wl.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans -> %s\n", len(tr.spans), path)
	return res, nil
}

// contractLine is the result line of the benchmark contract.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one run under the benchmark contract: untraced it
// reports every end-to-end metric, traced every per-layer metric (the
// window split between an untraced and a traced half, so the overhead
// of tracing is measured too).
func runContract(opt options, name string, traced bool) (bool, error) {
	wl, err := findWorkload(name)
	if err != nil {
		return false, err
	}
	var res *result
	defs := endToEnd
	if traced {
		defs = perLayer
		half, err := wl.run(opt.seed, opt.dur()/2, nil, 0)
		if err != nil {
			return false, err
		}
		if res, err = runTraced(wl, opt, opt.dur()/2, half); err != nil {
			return false, err
		}
		res.attempted += half.attempted
		res.failed += half.failed
		res.violations = append(res.violations, half.violations...)
		res.merge(half)
	} else if res, err = wl.run(opt.seed, opt.dur(), nil, spareEnvs); err != nil {
		return false, err
	}
	if unk := res.unknown(); len(unk) > 0 {
		return false, fmt.Errorf("metrics not in the registry: %v", unk)
	}
	fmt.Printf("%s seed %d, %.3g s, trace %v\n", wl.name, opt.seed, opt.seconds, traced)
	res.print(defs)
	for _, v := range res.violations {
		fmt.Println("  VIOLATION:", v)
	}
	line := contractLine{
		Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]contractMetric{},
	}
	for _, d := range defs {
		v := res.m[d.name]
		if !traced && !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			// An end-to-end metric that could not be measured means the
			// run did not do its work.
			line.Correct = false
			v = 0
		}
		line.Metrics[d.name] = contractMetric{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct, nil
}

// runAll is the one command that prints everything: every workload
// untraced with its end-to-end metrics, then traced at a quarter of
// the length with its per-layer metrics, the probes and the ledger.
func runAll(opt options) (bool, error) {
	ok := true
	for _, wl := range workloads {
		fmt.Printf("== %s (untraced, %.3g s, seed %d)\n   %s\n", wl.name, opt.seconds, opt.seed, wl.why)
		res, err := wl.run(opt.seed, opt.dur(), nil, spareEnvs)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		res.print(endToEnd)
		fmt.Printf("== %s (traced, %.3g s)\n", wl.name, opt.seconds/4)
		traced, err := runTraced(wl, opt, opt.dur()/4, res)
		if err != nil {
			return false, fmt.Errorf("%s traced: %w", wl.name, err)
		}
		traced.print(perLayer)
		for _, r := range []*result{res, traced} {
			for _, v := range r.violations {
				fmt.Println("  VIOLATION:", v)
				ok = false
			}
			if !r.correct() {
				ok = false
			}
		}
	}
	if ok {
		fmt.Println("all workloads correct")
	}
	return ok, nil
}

// runCheck runs sets sets of every workload with the same seed and
// holds each end-to-end metric's disagreement between sets against
// its bound: the tool for sizing bounds and for showing that the
// benchmark can tell a change from noise.
func runCheck(opt options, sets int) (bool, error) {
	if sets < 2 {
		return false, fmt.Errorf("-check needs at least 2 sets, got %d", sets)
	}
	vals := map[string][]float64{} // workload/metric -> value per set
	ok := true
	for s := 0; s < sets; s++ {
		for _, wl := range workloads {
			res, err := wl.run(opt.seed, opt.dur(), nil, spareEnvs)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			if !res.correct() {
				ok = false
				fmt.Printf("set %d %s: INCORRECT %v\n", s+1, wl.name, res.violations)
			}
			for _, d := range endToEnd {
				k := wl.name + "/" + d.name
				vals[k] = append(vals[k], res.m[d.name])
			}
			fmt.Printf("set %d %s done\n", s+1, wl.name)
		}
	}
	fmt.Printf("%-20s %-10s %s  %9s %6s\n", "workload", "metric", "values", "disagree", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := vals[wl.name+"/"+d.name]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			// Worsening of the worst set against the best one, in the
			// metric's own direction.
			dis := (hi - lo) / lo
			if d.better == "higher" {
				dis = (hi - lo) / hi
			}
			verdict := ""
			if !(dis <= d.bound) {
				verdict = "  BEYOND BOUND"
				ok = false
			}
			fmt.Printf("%-20s %-10s %v  %8.2f%% %5.0f%%%s\n", wl.name, d.name, v, 100*dis, 100*d.bound, verdict)
		}
	}
	return ok, nil
}

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the window length the contract's driver asks for.
const runSeconds = 10

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}

func printManifest() error {
	out, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
