package interleave

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

func TestScheduledRunsAreDeterministic(t *testing.T) {
	cfg := Config{
		Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 4, UpdatePct: 70,
		SchedSeed: 11, WorkSeed: 5,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || len(a.History) != len(b.History) {
		t.Fatalf("non-deterministic: %d/%d steps, %d/%d ops",
			a.Steps, b.Steps, len(a.History), len(b.History))
	}
	for i := range a.History {
		x, y := a.History[i], b.History[i]
		if x.RetVal != y.RetVal || x.Inv != y.Inv || x.Ret != y.Ret {
			t.Fatalf("op %d differs between identical runs: %+v vs %+v", i, x, y)
		}
	}
}

func TestScheduledLinearizability(t *testing.T) {
	// Many distinct fine-grained interleavings, each fully checked by
	// the DFS (histories kept small so the search is exact).
	for _, sp := range []spec.Spec{objects.CounterSpec{}, objects.QueueSpec{}, objects.StackSpec{}} {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			t.Parallel()
			for ss := int64(0); ss < 30; ss++ {
				if _, err := Run(Config{
					Spec: sp, NProcs: 3, OpsPerProc: 3, UpdatePct: 60,
					SchedSeed: ss, WorkSeed: ss / 3,
				}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestScheduledCrashSweep(t *testing.T) {
	for _, sp := range []spec.Spec{objects.CounterSpec{}, objects.MapSpec{}} {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			t.Parallel()
			runs, err := Sweep(Config{
				Spec: sp, NProcs: 3, OpsPerProc: 5, UpdatePct: 80,
				WorkSeed: 2, Oracle: pmem.SeededOracle(99, 1, 2),
			}, 8, []int{5, 15, 35, 55, 75, 95})
			if err != nil {
				t.Fatal(err)
			}
			if runs < 8*7 {
				t.Fatalf("only %d runs", runs)
			}
		})
	}
}

func TestScheduledCrashEveryStep(t *testing.T) {
	// The heavy hammer: crash at EVERY global step of one fixed
	// schedule and validate recovery each time.
	base := Config{
		Spec: objects.CounterSpec{}, NProcs: 2, OpsPerProc: 2, UpdatePct: 100,
		SchedSeed: 7, WorkSeed: 7, Oracle: pmem.DropAll,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= clean.Steps; step++ {
		cfg := base
		cfg.CrashAtStep = step
		if _, err := Run(cfg); err != nil {
			t.Fatalf("crash at step %d/%d: %v", step, clean.Steps, err)
		}
	}
	t.Logf("validated a crash at every one of %d steps", clean.Steps)
}

func TestScheduledCrashEveryStepWithHelping(t *testing.T) {
	// Same, KeepAll oracle (maximum survivors) and more contention.
	base := Config{
		Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 1, UpdatePct: 100,
		SchedSeed: 3, WorkSeed: 1, Oracle: pmem.KeepAll,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= clean.Steps; step++ {
		cfg := base
		cfg.CrashAtStep = step
		if _, err := Run(cfg); err != nil {
			t.Fatalf("crash at step %d/%d: %v", step, clean.Steps, err)
		}
	}
}

func TestScheduledExtensionsSweep(t *testing.T) {
	for _, mode := range []struct {
		name  string
		shape core.Config
	}{
		{"waitfree", core.Config{WaitFree: true}},
		{"localviews", core.Config{LocalViews: true}},
		{"compaction", core.Config{LocalViews: true, CompactEvery: 3}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			runs, err := Sweep(Config{
				Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 4, UpdatePct: 90,
				WorkSeed: 4, Oracle: pmem.SeededOracle(1, 2, 3),
				Core: mode.shape,
			}, 6, []int{10, 40, 70})
			if err != nil {
				t.Fatal(err)
			}
			if runs < 24 {
				t.Fatalf("only %d runs", runs)
			}
		})
	}
}

func TestSweepReportsRunCount(t *testing.T) {
	runs, err := Sweep(Config{
		Spec: objects.RegisterSpec{}, NProcs: 2, OpsPerProc: 2, UpdatePct: 100,
		WorkSeed: 1,
	}, 2, []int{50})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4 { // 2 clean + 2 crashed
		t.Fatalf("runs=%d", runs)
	}
	_ = fmt.Sprint(runs)
}
