package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
)

// TestSlotHolderCrashRecovery pins the shared-view slot's crash
// hygiene (core/fastpath.go): a process killed BETWEEN acquiring the
// seqlock-style slot and releasing it leaves the version odd — within
// that run the optimization is simply disabled (contenders never wait
// on the slot), but a recovered instance must NOT inherit the dead
// lock. The pre-crash era drives a publisher deterministically to
// PointSlotCopy — the gate announced while HOLDING the slot, just
// before the state copy — and kills the whole machine right there.
// After whole-image recovery, the slot must be live again: a fresh
// round of updates and lagging reads must produce publications and
// at least one adoption, which can only happen through a free,
// usable slot.
func TestSlotHolderCrashRecovery(t *testing.T) {
	const rounds = 60
	ctl := sched.NewController()
	pool := pmem.New(1<<24, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: 3, ReadFastPath: true, LogCapacity: 1 << 10, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}

	// p0 updates; p1's reads lag far behind, so p1's first validating
	// read bootstraps the slot (a PointSlotCopy while holding it).
	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				panic(err)
			}
		}
	})
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		h.Read(objects.CounterGet)
	})
	ctl.RunToCompletion(0)
	if pt, ok := ctl.RunUntil(1, sched.AtPoint(core.PointSlotCopy)); !ok {
		t.Fatalf("p1 never reached %s (slot never acquired); last point %q", core.PointSlotCopy, pt)
	}
	// p1 now HOLDS the slot (version odd), copy not yet performed.
	// Kill everything: the classic "holder dies inside the critical
	// section" crash.
	ctl.KillAll()
	<-done0
	if out := <-done1; !sched.IsKilled(out) {
		t.Fatalf("p1 finished instead of dying at the slot: %v", out)
	}

	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	in2, _, err := core.Recover(pool, objects.CounterSpec{}, core.Config{
		ReadFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every pre-crash update was fenced before its return; p0 completed
	// all of them before the crash.
	h0 := in2.Handle(0)
	if got := h0.Read(objects.CounterGet); got != rounds {
		t.Fatalf("recovered counter %d, want %d", got, rounds)
	}
	// Post-recovery slot activity: h0's read above validated and
	// bootstrapped the slot; grow the frontier and let a cold handle
	// catch up through it. If recovery had inherited the odd version,
	// every acquire below would fail and Adoptions would stay 0.
	for i := 0; i < rounds; i++ {
		if _, _, err := h0.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if got := h0.Read(objects.CounterGet); got != 2*rounds {
		t.Fatalf("post-recovery counter %d, want %d", got, 2*rounds)
	}
	if got := in2.Handle(1).Read(objects.CounterGet); got != 2*rounds {
		t.Fatalf("cold handle read %d, want %d", got, 2*rounds)
	}
	st := in2.FastPathStats()
	if st.Publishes == 0 {
		t.Fatalf("post-recovery slot never published: %+v", st)
	}
	if st.Adoptions == 0 {
		t.Fatalf("post-recovery adoptions = 0 (slot unusable after recovery): %+v", st)
	}
}
