package check

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// mkOps builds records compactly: each entry is
// {isUpdate, code, arg, inv, ret, retval, id}.
type opSpec struct {
	upd       bool
	code, arg uint64
	inv, ret  uint64
	retval    uint64
	id        uint64
}

func mkOps(specs []opSpec) []OpRecord {
	out := make([]OpRecord, len(specs))
	for i, s := range specs {
		out[i] = OpRecord{
			Token: i, OpID: s.id, Code: s.code, Args: [3]uint64{s.arg},
			IsUpdate: s.upd, Inv: s.inv, Ret: s.ret, RetVal: s.retval,
		}
	}
	return out
}

func TestLinearizableSequential(t *testing.T) {
	// inc()=1, inc()=2, get()=2: trivially linearizable.
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 1},
		{true, objects.CounterInc, 0, 3, 4, 2, 2},
		{false, objects.CounterGet, 0, 5, 6, 2, 0},
	})
	if !Linearizable(objects.CounterSpec{}, ops) {
		t.Fatal("valid sequential history rejected")
	}
}

func TestLinearizableRejectsWrongValue(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 1},
		{false, objects.CounterGet, 0, 3, 4, 7, 0}, // impossible value
	})
	if Linearizable(objects.CounterSpec{}, ops) {
		t.Fatal("impossible read accepted")
	}
}

func TestLinearizableRejectsStaleRead(t *testing.T) {
	// inc completes (ret=2), THEN a read starts and returns 0: stale.
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 1},
		{false, objects.CounterGet, 0, 3, 4, 0, 0},
	})
	if Linearizable(objects.CounterSpec{}, ops) {
		t.Fatal("stale read accepted")
	}
}

func TestLinearizableAcceptsConcurrentEitherOrder(t *testing.T) {
	// Read overlaps the inc: may see 0 or 1.
	for _, val := range []uint64{0, 1} {
		ops := mkOps([]opSpec{
			{true, objects.CounterInc, 0, 1, 4, 1, 1},
			{false, objects.CounterGet, 0, 2, 3, val, 0},
		})
		if !Linearizable(objects.CounterSpec{}, ops) {
			t.Fatalf("concurrent read of %d rejected", val)
		}
	}
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 4, 1, 1},
		{false, objects.CounterGet, 0, 2, 3, 2, 0},
	})
	if Linearizable(objects.CounterSpec{}, ops) {
		t.Fatal("impossible concurrent read accepted")
	}
}

func TestLinearizablePendingOpMayOrMayNotTakeEffect(t *testing.T) {
	// A pending inc (no response) plus a read of 1 OR 0: both fine.
	for _, val := range []uint64{0, 1} {
		ops := mkOps([]opSpec{
			{true, objects.CounterInc, 0, 1, 0, 0, 1}, // pending
			{false, objects.CounterGet, 0, 2, 3, val, 0},
		})
		if !Linearizable(objects.CounterSpec{}, ops) {
			t.Fatalf("pending-inc history with read=%d rejected", val)
		}
	}
}

func TestLinearizableQueueMixed(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.QueueEnq, 10, 1, 2, 1, 1},
		{true, objects.QueueEnq, 20, 3, 6, 2, 2},
		{true, objects.QueueDeq, 0, 4, 5, 10, 3}, // overlaps enq(20)
		{false, objects.QueueLen, 0, 7, 8, 1, 0},
	})
	if !Linearizable(objects.QueueSpec{}, ops) {
		t.Fatal("valid queue history rejected")
	}
	// FIFO violation: deq returns 20 though 10 was enqueued strictly first.
	ops = mkOps([]opSpec{
		{true, objects.QueueEnq, 10, 1, 2, 1, 1},
		{true, objects.QueueEnq, 20, 3, 4, 2, 2},
		{true, objects.QueueDeq, 0, 5, 6, 20, 3},
	})
	if Linearizable(objects.QueueSpec{}, ops) {
		t.Fatal("FIFO violation accepted")
	}
}

func TestCheckDurableAcceptsCleanRun(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 100},
		{true, objects.CounterInc, 0, 3, 4, 2, 200},
	})
	rec := MakeRecovered([]spec.Op{
		{Code: objects.CounterInc, ID: 100},
		{Code: objects.CounterInc, ID: 200},
	})
	if err := CheckDurable(objects.CounterSpec{}, ops, rec); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDurableR1ErasedUpdate(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 100}, // completed
	})
	rec := MakeRecovered(nil) // recovery lost it
	err := CheckDurable(objects.CounterSpec{}, ops, rec)
	if v, ok := err.(*DurabilityViolation); !ok || v.Rule != "R1" {
		t.Fatalf("want R1 violation, got %v", err)
	}
}

func TestCheckDurableR2InventedUpdate(t *testing.T) {
	rec := MakeRecovered([]spec.Op{{Code: objects.CounterInc, ID: 999}})
	err := CheckDurable(objects.CounterSpec{}, nil, rec)
	if v, ok := err.(*DurabilityViolation); !ok || v.Rule != "R2" {
		t.Fatalf("want R2 violation, got %v", err)
	}
}

func TestCheckDurableR3OrderInversion(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.LogAppend, 1, 1, 2, 0, 100}, // completed first
		{true, objects.LogAppend, 2, 3, 4, 1, 200}, // then this
	})
	rec := MakeRecovered([]spec.Op{
		{Code: objects.LogAppend, Args: [3]uint64{2}, ID: 200},
		{Code: objects.LogAppend, Args: [3]uint64{1}, ID: 100},
	})
	err := CheckDurable(objects.LogSpec{}, ops, rec)
	if v, ok := err.(*DurabilityViolation); !ok || v.Rule != "R3" {
		t.Fatalf("want R3 violation, got %v", err)
	}
}

func TestCheckDurableR4WrongReturn(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 5, 100}, // claims it returned 5
	})
	rec := MakeRecovered([]spec.Op{{Code: objects.CounterInc, ID: 100}})
	err := CheckDurable(objects.CounterSpec{}, ops, rec)
	if v, ok := err.(*DurabilityViolation); !ok || v.Rule != "R4" {
		t.Fatalf("want R4 violation, got %v", err)
	}
}

func TestCheckDurableR5ImpossibleRead(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 2, 1, 100},
		{false, objects.CounterGet, 0, 3, 4, 0, 0}, // reads 0 AFTER inc completed
	})
	rec := MakeRecovered([]spec.Op{{Code: objects.CounterInc, ID: 100}})
	err := CheckDurable(objects.CounterSpec{}, ops, rec)
	if v, ok := err.(*DurabilityViolation); !ok || v.Rule != "R5" {
		t.Fatalf("want R5 violation, got %v", err)
	}
}

func TestCheckDurablePendingMayBeIncluded(t *testing.T) {
	ops := mkOps([]opSpec{
		{true, objects.CounterInc, 0, 1, 0, 0, 100}, // pending at crash
	})
	// Included:
	if err := CheckDurable(objects.CounterSpec{}, ops,
		MakeRecovered([]spec.Op{{Code: objects.CounterInc, ID: 100}})); err != nil {
		t.Fatalf("pending-included rejected: %v", err)
	}
	// Excluded:
	if err := CheckDurable(objects.CounterSpec{}, ops, MakeRecovered(nil)); err != nil {
		t.Fatalf("pending-excluded rejected: %v", err)
	}
}

func TestHistoryRecorder(t *testing.T) {
	h := NewHistory()
	tok := h.Invoke(1, objects.CounterInc, nil, true, 42)
	h.Return(tok, 7)
	ops := h.Ops()
	if len(ops) != 1 {
		t.Fatalf("%d ops", len(ops))
	}
	o := ops[0]
	if o.PID != 1 || o.OpID != 42 || o.RetVal != 7 || !o.Completed() || o.Inv >= o.Ret {
		t.Fatalf("record wrong: %+v", o)
	}
}

func TestE5HarnessLiveRunsAreLinearizable(t *testing.T) {
	// Small live histories across objects, checked with the full DFS.
	for _, sp := range []spec.Spec{objects.CounterSpec{}, objects.QueueSpec{}, objects.SetSpec{}} {
		for seed := int64(0); seed < 4; seed++ {
			res, err := RunLive(HarnessConfig{
				Spec: sp, NProcs: 3, OpsPerProc: 4, UpdatePct: 60, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !Linearizable(sp, res.History) {
				t.Fatalf("%s seed %d: live history not linearizable", sp.Name(), seed)
			}
		}
	}
}

func TestE5CrashInjectionSweep(t *testing.T) {
	// The main E5 experiment (scaled down for the unit-test suite; the
	// bench harness runs wider sweeps): crash at many different steps,
	// under different oracles and configurations, and validate durable
	// linearizability every time.
	specs := []spec.Spec{objects.CounterSpec{}, objects.MapSpec{}, objects.QueueSpec{}, objects.BankSpec{}}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				// Learn the run length, then crash at proportional points.
				probe, err := RunLive(HarnessConfig{
					Spec: sp, NProcs: 3, OpsPerProc: 20, UpdatePct: 70, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, frac := range []uint64{10, 25, 50, 75, 95} {
					crash := probe.Steps * frac / 100
					if crash == 0 {
						crash = 1
					}
					for _, oracle := range []pmem.Oracle{pmem.DropAll, pmem.KeepAll, pmem.SeededOracle(uint64(seed), 1, 2)} {
						if _, err := RunCrash(HarnessConfig{
							Spec: sp, NProcs: 3, OpsPerProc: 20, UpdatePct: 70,
							Seed: seed, CrashStep: crash, Oracle: oracle,
						}); err != nil {
							t.Fatalf("seed=%d crash@%d: %v", seed, crash, err)
						}
					}
				}
			}
		})
	}
}

func TestE5CrashInjectionWithExtensions(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		shape core.Config
	}{
		{"waitfree", core.Config{WaitFree: true}},
		{"localviews", core.Config{LocalViews: true}},
		{"compaction", core.Config{LocalViews: true, CompactEvery: 5}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				probe, err := RunLive(HarnessConfig{
					Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 15, UpdatePct: 80,
					Seed: seed, Core: cfg.shape,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, frac := range []uint64{20, 50, 80} {
					crash := probe.Steps * frac / 100
					if crash == 0 {
						crash = 1
					}
					if _, err := RunCrash(HarnessConfig{
						Spec: objects.CounterSpec{}, NProcs: 3, OpsPerProc: 15, UpdatePct: 80,
						Seed: seed, CrashStep: crash, Oracle: pmem.SeededOracle(uint64(seed), 1, 3),
						Core: cfg.shape,
					}); err != nil {
						t.Fatalf("seed=%d crash@%d%%: %v", seed, frac, err)
					}
				}
			}
		})
	}
}

func TestE5PostRecoveryEraIsConsistent(t *testing.T) {
	// After a crash+recovery, continue operating and verify era-2
	// semantics continue from the recovered prefix.
	res, err := RunCrash(HarnessConfig{
		Spec: objects.CounterSpec{}, NProcs: 2, OpsPerProc: 30, UpdatePct: 100,
		Seed: 9, CrashStep: 300, Oracle: pmem.DropAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil {
		t.Skip("run finished before the crash step")
	}
	h := res.Instance.Handle(0)
	before := h.Read(objects.CounterGet)
	ret, _, err := h.Update(objects.CounterInc)
	if err != nil {
		t.Fatal(err)
	}
	if ret != before+1 {
		t.Fatalf("era-2 increment returned %d, want %d", ret, before+1)
	}
	// The recovered value must equal replaying the recovered sequence.
	st, _ := spec.Replay(objects.CounterSpec{}, res.Report.Ordered)
	if want := st.Read(spec.Op{Code: objects.CounterGet}); before != want {
		t.Fatalf("recovered value %d != replay %d", before, want)
	}
}

func TestDurabilityViolationError(t *testing.T) {
	v := &DurabilityViolation{Rule: "R1", Detail: "x"}
	want := "durable linearizability violated (R1): x"
	if v.Error() != want {
		t.Fatalf("got %q", v.Error())
	}
	_ = fmt.Sprintf("%v", v)
}

func TestE5CrashInjectionUnderEviction(t *testing.T) {
	// Spontaneous eviction makes data durable EARLIER than fenced;
	// durable linearizability must still hold (more may survive a
	// crash, never less, and never inconsistently).
	for seed := int64(1); seed <= 4; seed++ {
		probe, err := RunLive(HarnessConfig{
			Spec: objects.MapSpec{}, NProcs: 3, OpsPerProc: 15, UpdatePct: 80,
			Seed: seed, EvictionRate: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []uint64{20, 50, 80} {
			crash := probe.Steps * frac / 100
			if crash == 0 {
				crash = 1
			}
			if _, err := RunCrash(HarnessConfig{
				Spec: objects.MapSpec{}, NProcs: 3, OpsPerProc: 15, UpdatePct: 80,
				Seed: seed, CrashStep: crash, EvictionRate: 4,
				Oracle: pmem.SeededOracle(uint64(seed), 1, 2),
			}); err != nil {
				t.Fatalf("seed=%d crash@%d%%: %v", seed, frac, err)
			}
		}
	}
}
