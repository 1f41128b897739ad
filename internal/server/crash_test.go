package server

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// killAtPoint is a crash gate that kills the machine at the nth
// occurrence of one named pipeline point — here core's PointPersisted,
// which Batch.Flush steps immediately AFTER the flush fence and BEFORE
// the batcher delivers any ack-on-persist response. Killing there is
// exactly the window the batcher crash leg exists for: ops durable,
// clients never told.
type killAtPoint struct {
	point string
	nth   int32
	seen  atomic.Int32
	fired atomic.Bool
}

func (k *killAtPoint) Step(pid int, point string) {
	if k.fired.Load() {
		panic(sched.ErrKilled)
	}
	if point == k.point && k.seen.Add(1) == k.nth {
		k.fired.Store(true)
		panic(sched.ErrKilled)
	}
}

// TestBatcherCrashBetweenFenceAndResponse is the crash-sweep leg for
// the batcher (wired into CI's crash-sweep job): the machine dies right
// after the second flush's fence, before its responses go out. All ten
// requests are queued before the loop starts, so MaxBatch alone cuts
// the batches and pins which ops land where:
//
//	ops 1-4  — batch 1, flushed, ACKED:    must be recovered
//	ops 5-8  — batch 2, flushed, unacked:  must be recovered anyway
//	           (the fence beat the crash; the client just never heard)
//	ops 9-10 — never flushed, unacked:     must be absent, and the
//	           absence detectable per op id via WasLinearized
func TestBatcherCrashBetweenFenceAndResponse(t *testing.T) {
	gate := &killAtPoint{point: core.PointPersisted, nth: 2}
	pool := pmem.New(1<<24, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: 2, LogMaxOps: 2 + 16, Gate: gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	ba := NewBatcher(in.Handle(0), nil, BatcherConfig{MaxBatch: 4})

	const n = 10
	respCh := make(chan *Request, n)
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Code: objects.CounterInc, AckPersist: true, done: respCh}
		if err := ba.Submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	go ba.Run()
	// The batcher dies inside batch 2's flush; wait for the corpse.
	select {
	case <-ba.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher survived the crash gate")
	}
	if !ba.Killed() {
		t.Fatal("batcher stopped but not via the kill gate")
	}
	acked := map[uint64]bool{}
	for {
		select {
		case r := <-respCh:
			if r.Err != nil {
				t.Fatalf("pre-crash response carried error: %v", r.Err)
			}
			acked[r.ID] = true
			continue
		default:
		}
		break
	}

	pool.Crash(pmem.DropAll)
	rin, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant 1 (the ack-on-persist contract): every acked request
	// was recovered.
	for id := range acked {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("ack-on-persist'd op %#x lost after crash", id)
		}
	}
	// Invariant 2 (this scenario's shape): acks are exactly batch 1.
	if len(acked) != 4 {
		t.Fatalf("%d acks delivered before the crash, want exactly batch 1 (4)", len(acked))
	}
	// Invariant 3: batch 2 was fenced before the kill, so its unacked
	// ops are recovered too; the never-flushed tail is absent and each
	// absence is detectable by id.
	recovered := 0
	for seq := uint64(1); seq <= n; seq++ {
		id := spec.MakeID(0, seq)
		_, ok := rep.WasLinearized(id)
		switch {
		case seq <= 8 && !ok:
			t.Fatalf("flushed op seq %d (%#x) not recovered", seq, id)
		case seq > 8 && ok:
			t.Fatalf("never-flushed op seq %d (%#x) reported linearized", seq, id)
		}
		if ok {
			recovered++
		}
	}
	if v := rin.Handle(0).Read(objects.CounterGet); v != uint64(recovered) {
		t.Fatalf("recovered state %d, want %d (one per recovered op)", v, recovered)
	}
}
