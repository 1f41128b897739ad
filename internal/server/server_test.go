package server

import (
	"encoding/csv"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *pmem.Pool) {
	t.Helper()
	pool := pmem.New(1<<25, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: 4, LogMaxOps: 4 + 128, ReadFastPath: true, CompactEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	return s, pool
}

// TestServerEndToEndAcksAfterFence pipelines updates in every update
// kind the wire accepts ('P' and 'L' are aliases of 'U') and checks the
// one ack point: no response precedes its covering fence.
func TestServerEndToEndAcksAfterFence(t *testing.T) {
	s, pool := newTestServer(t, Config{Batcher: BatcherConfig{MaxBatch: 64}})
	defer s.Close()
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pipeline 100 increments, cycling the update kinds; then wait for
	// every response.
	const n = 100
	kinds := []byte{KindUpdate, KindUpdatePersist, KindUpdateLinearize}
	chans := make([]<-chan Resp, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, c.Async(kinds[i%len(kinds)], objects.CounterInc))
	}
	rets := map[uint64]bool{}
	ids := map[uint64]bool{}
	for _, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("update: %v", r.Err)
		}
		if rets[r.Ret] || ids[r.ID] {
			t.Fatalf("duplicate ret %d / id %#x", r.Ret, r.ID)
		}
		rets[r.Ret], ids[r.ID] = true, true
	}
	for v := uint64(1); v <= n; v++ {
		if !rets[v] {
			t.Fatalf("return value %d missing (returns must be the dense 1..%d)", v, n)
		}
	}
	// The connection's writer answers in queue order, so once this read
	// is answered every update row carries its RespondNs.
	if r, err := c.Call(KindRead, objects.CounterGet); err != nil || r.Ret != n {
		t.Fatalf("read = %d, %v; want %d", r.Ret, err, n)
	}

	st := s.Stats()
	if st.Updates != n || st.Batched != n || st.Reads != 1 {
		t.Fatalf("stats = %+v, want %d updates/batched, 1 read", st, n)
	}
	// The fence accounting: one fence per flush and nothing else (no
	// cut happens in 100 ops at CompactEvery 256), never one per request
	// plus extras. How many requests a flush covers is the load's
	// business (TestBatchIsTheBacklog), not this test's.
	if pf := pool.TotalStats().PersistentFences; pf != st.Flushes || st.Flushes > n {
		t.Fatalf("%d persistent fences, %d flushes for %d updates; want fences == flushes <= updates", pf, st.Flushes, n)
	}
	var sb strings.Builder
	if err := s.DumpTimings(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rows[0], ",") != CSVHeader || len(rows) != n+1 {
		t.Fatalf("timing dump has %d rows (header %q), want %d + header", len(rows), rows[0], n)
	}
	for _, row := range rows[1:] {
		persist, _ := strconv.ParseInt(row[8], 10, 64)
		respond, _ := strconv.ParseInt(row[9], 10, 64)
		if row[2] != "persist" || persist == 0 || respond < persist {
			t.Fatalf("row %q: want ack persist and respond_ns >= persist_ns > 0", row)
		}
	}
}

// TestServerDrainShutdown is the wire-level drain check: Close called
// the moment the last request is staged — its fence and most response
// writes still ahead — returns only after every accepted request has
// been answered. (That the drain fences what is still queued is pinned
// at the batcher, TestBatcherCloseDrainsQueuedRequests.)
func TestServerDrainShutdown(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 37
	chans := make([]<-chan Resp, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, c.Async(KindUpdate, objects.CounterInc))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Updates < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d updates reached the batcher", s.Stats().Updates, n)
		}
		runtime.Gosched()
	}
	s.Close()
	// Close has returned: every response is already on the wire.
	for _, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("drained update: %v", r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("drain shutdown did not deliver all pending responses")
		}
	}
	if st := s.Stats(); st.Updates != n || st.Batched != n {
		t.Fatalf("stats after drain = %+v, want %d updates, all fenced", st, n)
	}
}

func TestStatsPollingRaceFree(t *testing.T) {
	// The torn-read audit's regression: poll every stats surface from
	// real goroutines while the server takes traffic. Run under -race
	// (the CI server job does).
	s, _ := newTestServer(t, Config{
		Batcher: BatcherConfig{MaxBatch: 16},
	})
	defer s.Close()
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		var sink atomic.Uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			cs := s.Instance().CompactionStats()
			pr := s.Instance().Pressure()
			sink.Store(st.Updates + cs.Bases + cs.Deltas + uint64(pr.Spills))
		}
	}()
	var cliWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			c, err := Dial("tcp", s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 40; i++ {
				var chans [8]<-chan Resp
				for j := range chans {
					chans[j] = c.Async(KindUpdateLinearize, objects.CounterInc)
				}
				for _, ch := range chans {
					if r := <-ch; r.Err != nil {
						t.Error(r.Err)
						return
					}
				}
				c.Call(KindRead, objects.CounterGet)
			}
		}()
	}
	cliWG.Wait()
	close(stop)
	pollWG.Wait()
}

// newTestBatcher builds a counter instance whose batch record admits
// maxBatch ops plus the helping tail, and a batcher over it that is NOT
// yet running: tests preload the queue and then start Run, so batch
// shapes follow from the rule alone, not from who wins a wake-up.
func newTestBatcher(t *testing.T, maxBatch int) (*Batcher, *pmem.Pool) {
	t.Helper()
	pool := pmem.New(1<<24, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, LogMaxOps: 2 + maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	// MaxWait an hour: were the field still read, no test here would see
	// an ack.
	return NewBatcher(in.Handle(0), nil, BatcherConfig{MaxBatch: maxBatch, MaxWait: time.Hour}), pool
}

// submitN queues n increments and returns the channel their acks
// arrive on.
func submitN(t *testing.T, ba *Batcher, n int) <-chan *Request {
	t.Helper()
	done := make(chan *Request, n)
	for i := 0; i < n; i++ {
		if err := ba.Submit(&Request{Code: objects.CounterInc, done: done}); err != nil {
			t.Fatal(err)
		}
	}
	return done
}

// awaitAcks receives n error-free acks or fails after 5 s.
func awaitAcks(t *testing.T, done <-chan *Request, n int, why string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case r := <-done:
			if r.Err != nil {
				t.Fatalf("ack carried error: %v", r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ack %d of %d never arrived: %s", i+1, n, why)
		}
	}
}

// TestBatcherClampsMaxBatchToBatchLimit pins BatcherConfig.MaxBatch's
// documented clamp: on a log not sized for the batcher (default
// LogMaxOps, so core.Batch admits one op per flush) a MaxBatch of 64
// comes down to that limit, and with it the queue. The ack arrives
// either way — an unclamped batcher would get there through stage's
// defensive ErrBatchFull flush; the clamp saves that round trip.
func TestBatcherClampsMaxBatchToBatchLimit(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ba := NewBatcher(in.Handle(0), nil, BatcherConfig{MaxBatch: 64})
	if limit := ba.batch.Limit(); limit >= 64 || ba.cfg.MaxBatch != limit || cap(ba.in) != 4*limit {
		t.Fatalf("MaxBatch %d, queue %d on a batch limit of %d; want the limit and 4x the limit", ba.cfg.MaxBatch, cap(ba.in), limit)
	}
	go ba.Run()
	defer ba.Close()
	awaitAcks(t, submitN(t, ba, 1), 1, "a batch at its admission limit did not fence")
}

// TestLoneUpdateFencesWithoutTimer pins the dry-queue half of the rule:
// one request, a batch nowhere near MaxBatch (and a log
// sized for it, so the clamp above is not what fires), nothing else
// coming. The queue is dry, so it is fenced at once: exactly the paper's
// one fence, and no clock involved.
func TestLoneUpdateFencesWithoutTimer(t *testing.T) {
	ba, pool := newTestBatcher(t, 64)
	go ba.Run()
	defer ba.Close()
	awaitAcks(t, submitN(t, ba, 1), 1, "a lone update waited for a fill or a timer")
	if st, pf := ba.Stats(), pool.TotalStats().PersistentFences; st.Flushes != 1 || pf != 1 {
		t.Fatalf("lone update: %d flushes, %d persistent fences, want 1 and 1", st.Flushes, pf)
	}
}

// TestBatchIsTheBacklog pins the other half: a batch is whatever is
// already queued, capped by MaxBatch, one fence each. 2*MaxBatch+3
// requests queued before Run starts are fenced as MaxBatch, MaxBatch, 3.
func TestBatchIsTheBacklog(t *testing.T) {
	const maxBatch, n = 4, 2*4 + 3
	ba, pool := newTestBatcher(t, maxBatch)
	done := submitN(t, ba, n)
	go ba.Run()
	ba.Close()
	awaitAcks(t, done, n, "Close returned with acks outstanding")
	st, pf := ba.Stats(), pool.TotalStats().PersistentFences
	if st.Flushes != 3 || st.Batched != n || pf != 3 {
		t.Fatalf("%d requests at MaxBatch %d: %d flushes covering %d, %d persistent fences; want 3, %d, 3",
			n, maxBatch, st.Flushes, st.Batched, pf, n)
	}
}

// TestBatcherCloseDrainsQueuedRequests pins the drain at the batcher:
// Close may be called before Run has taken anything off the queue — it
// is started first here — and everything queued is still staged, fenced
// and acked before Close returns; nothing is accepted after.
func TestBatcherCloseDrainsQueuedRequests(t *testing.T) {
	const maxBatch, n = 4, 10
	ba, _ := newTestBatcher(t, maxBatch)
	done := submitN(t, ba, n)
	closed := make(chan struct{})
	go func() {
		ba.Close()
		close(closed)
	}()
	go ba.Run()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	awaitAcks(t, done, n, "Close returned with acks outstanding")
	if err := ba.Submit(&Request{Code: objects.CounterInc}); err != ErrServerClosed {
		t.Fatalf("Submit after Close = %v, want ErrServerClosed", err)
	}
	if st := ba.Stats(); st.Flushes != (n+maxBatch-1)/maxBatch || st.Batched != n {
		t.Fatalf("drain of %d at MaxBatch %d: %+v, want %d flushes covering all", n, maxBatch, st, (n+maxBatch-1)/maxBatch)
	}
}

// raceConn is a net.Conn whose Read fails as soon as a Write has
// started and whose Write fails only after the client's read loop has
// finished failing every outstanding call — the order a server closing
// the connection under an active pipelined client can produce.
type raceConn struct {
	net.Conn     // nil: only Read, Write and Close are reached
	writeStarted chan struct{}
	client       *Client // set before the first Write
}

func (c *raceConn) Read([]byte) (int, error) {
	<-c.writeStarted
	return 0, io.ErrUnexpectedEOF
}

func (c *raceConn) Write([]byte) (int, error) {
	close(c.writeStarted)
	<-c.client.rdone // fail() has resolved every outstanding call
	return 0, io.ErrClosedPipe
}

func (c *raceConn) Close() error { return nil }

// TestClientAsyncWriteErrorAfterReaderFailed is the regression test for
// Async's double resolution: the reader's fail() resolves the call
// (tag removed, 1-buffered channel filled) while the write is still in
// flight, then the write fails too. Async must return the channel with
// the reader's error in it instead of blocking on a second send.
func TestClientAsyncWriteErrorAfterReaderFailed(t *testing.T) {
	conn := &raceConn{writeStarted: make(chan struct{})}
	c := newClient(conn)
	conn.client = c

	got := make(chan Resp, 1)
	go func() { got <- <-c.Async(KindRead, objects.CounterGet) }()
	select {
	case r := <-got:
		if r.Err != io.ErrUnexpectedEOF {
			t.Fatalf("call resolved with %v, want the reader's error", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Async blocked: second send on a channel the reader already filled")
	}
}
