package server

import (
	"encoding/csv"
	"strconv"
	"strings"
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
// the batcher delivers any response. Killing there is
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
		reqs[i] = &Request{Code: objects.CounterInc, done: respCh}
		if err := ba.Submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The response writer: stamp RespondNs the moment a response is
	// handed over, as a connection's writer does.
	delivered := make(chan []*Request)
	go func() {
		var got []*Request
		for r := range respCh {
			r.RespondNs.Store(time.Now().UnixNano())
			got = append(got, r)
		}
		delivered <- got
	}()
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
	close(respCh) // the batcher is dead: nothing sends any more
	acked := map[uint64]bool{}
	for _, r := range <-delivered {
		if r.Err != nil {
			t.Fatalf("pre-crash response carried error: %v", r.Err)
		}
		if p := r.PersistNs.Load(); p == 0 || r.RespondNs.Load() < p {
			t.Fatalf("op %#x answered before its covering fence (persist %d, respond %d)", r.ID, p, r.RespondNs.Load())
		}
		acked[r.ID] = true
	}
	// The same, on the timing CSV: no row responds before its fence.
	var sb strings.Builder
	if err := ba.ring.dump(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(acked) {
		t.Fatalf("timing CSV has %d rows for %d acks, want one per ack plus the header", len(rows), len(acked))
	}
	for _, row := range rows[1:] {
		persist, _ := strconv.ParseInt(row[8], 10, 64)
		respond, _ := strconv.ParseInt(row[9], 10, 64)
		if persist == 0 || respond < persist {
			t.Fatalf("timing row %q responds before its fence", row)
		}
	}

	pool.Crash(pmem.DropAll)
	rin, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant 1 (the ack contract): every acked request was
	// recovered.
	for id := range acked {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("acked op %#x lost after crash", id)
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

// TestFullLogRefusesUnorderedRequests drives the server over a
// non-compacting instance until the batcher's log fills (8 slots, one
// per flush). A request is ordered only when the record it will be
// persisted in fits, so the answers on one pipelined connection are a
// run of acks and then a run of refusals. After a crash, every acked
// request is recovered; every refused one carries no op id and was
// never linearized, and the acked ids are the dense sequence 1..k: a
// refusal consumed no sequence number.
func TestFullLogRefusesUnorderedRequests(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, LogCapacity: 8, LogMaxOps: 2 + 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(in, Config{Batcher: BatcherConfig{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 // at most 8 flushes of 4 fit
	chans := make([]<-chan Resp, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, c.Async(KindUpdate, objects.CounterInc))
	}
	var acked, refused []Resp
	for i, ch := range chans {
		r := <-ch
		if r.Err == nil {
			if len(refused) > 0 {
				t.Fatalf("request %d acked after %d refusals", i, len(refused))
			}
			acked = append(acked, r)
		} else {
			refused = append(refused, r)
		}
	}
	if len(acked) == 0 || len(refused) == 0 {
		t.Fatalf("%d acked, %d refused; the log must fill mid-run", len(acked), len(refused))
	}
	c.Close()
	s.Close()

	pool.Crash(pmem.DropAll)
	rin, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range acked {
		if want := spec.MakeID(0, uint64(i+1)); r.ID != want {
			t.Fatalf("ack %d carries id %#x, want %#x", i, r.ID, want)
		}
		if _, ok := rep.WasLinearized(r.ID); !ok {
			t.Fatalf("acked op %#x lost after crash", r.ID)
		}
	}
	for _, r := range refused {
		if _, ok := rep.WasLinearized(r.ID); r.ID != 0 || ok {
			t.Fatalf("refused request (%v) has id %#x, linearized %v; want no id, never linearized", r.Err, r.ID, ok)
		}
	}
	if rep.LastIdx != uint64(len(acked)) {
		t.Fatalf("recovered %d ops for %d acks", rep.LastIdx, len(acked))
	}
	if v := rin.Handle(1).Read(objects.CounterGet); v != uint64(len(acked)) {
		t.Fatalf("recovered counter %d, want %d", v, len(acked))
	}
}
