package server

import (
	"io"
	"net"
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

func TestServerEndToEndBothAckModes(t *testing.T) {
	s, pool := newTestServer(t, Config{
		Batcher: BatcherConfig{MaxBatch: 64, MaxWait: 50 * time.Millisecond},
	})
	defer s.Close()
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pipeline 100 increments, alternating ack modes, so the batcher
	// sees deep batches; then wait for every response.
	const n = 100
	chans := make([]<-chan Resp, 0, n)
	for i := 0; i < n; i++ {
		kind := KindUpdateLinearize
		if i%2 == 1 {
			kind = KindUpdatePersist
		}
		chans = append(chans, c.Async(kind, objects.CounterInc))
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
	if r, err := c.Call(KindRead, objects.CounterGet); err != nil || r.Ret != n {
		t.Fatalf("read = %d, %v; want %d", r.Ret, err, n)
	}

	st := s.Stats()
	if st.Updates != n || st.Batched != n || st.Reads != 1 {
		t.Fatalf("stats = %+v, want %d updates/batched, 1 read", st, n)
	}
	// The amortization: far fewer fences than updates. Compaction adds
	// a bounded few, so just require a 4x margin.
	if pf := pool.TotalStats().PersistentFences; pf >= n/4 {
		t.Fatalf("%d persistent fences for %d batched updates — batching not amortizing", pf, n)
	}
	var sb strings.Builder
	if err := s.DumpTimings(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != CSVHeader || len(lines) != n+1 {
		t.Fatalf("timing dump has %d lines (header %q), want %d + header", len(lines), lines[0], n)
	}
	// Every flushed request carries the full timeline; ack-linearize
	// rows may legitimately show respond < persist.
	if !strings.Contains(sb.String(), ",linearize,") || !strings.Contains(sb.String(), ",persist,") {
		t.Fatal("timing dump missing one of the ack modes")
	}
}

func TestServerDrainShutdown(t *testing.T) {
	s, _ := newTestServer(t, Config{
		AckOnPersist: true,
		// A long MaxWait: only Close's drain can flush the tail batch,
		// which is exactly what this test pins.
		Batcher: BatcherConfig{MaxBatch: 1 << 20, MaxWait: time.Hour},
	})
	c, err := Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	chans := make([]<-chan Resp, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, c.Async(KindUpdate, objects.CounterInc))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ch := range chans {
			if r := <-ch; r.Err != nil {
				t.Errorf("drained update: %v", r.Err)
			}
		}
	}()
	// Give the submissions time to reach the batcher, then Close: the
	// drain must stage + fence + respond to all of them.
	time.Sleep(50 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain shutdown did not deliver all pending responses")
	}
	if st := s.Stats(); st.Updates != n || st.Flushes == 0 {
		t.Fatalf("stats after drain = %+v, want %d updates in >= 1 flush", st, n)
	}
	c.Close()
}

func TestStatsPollingRaceFree(t *testing.T) {
	// The torn-read audit's regression: poll every stats surface from
	// real goroutines while the server takes traffic. Run under -race
	// (the CI server job does).
	s, _ := newTestServer(t, Config{
		Batcher: BatcherConfig{MaxBatch: 16, MaxWait: time.Millisecond},
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
			fp := s.Instance().FastPathStats()
			cs := s.Instance().CompactionStats()
			pr := s.Instance().Pressure()
			sink.Store(st.Updates + fp.Publishes + cs.Bases + cs.Deltas + uint64(pr.Spills))
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

// TestBatcherClampsMaxBatchToBatchLimit pins BatcherConfig.MaxBatch's
// documented clamp: on a log not sized for the batcher (default
// LogMaxOps, so core.Batch admits one op per flush) a MaxBatch of 64
// must not leave a full batch waiting for the next arrival or MaxWait.
// One ack-on-persist request, MaxWait an hour: the ack can only arrive
// through the fill trigger.
func TestBatcherClampsMaxBatchToBatchLimit(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ba := NewBatcher(in.Handle(0), nil, BatcherConfig{MaxBatch: 64, MaxWait: time.Hour})
	go ba.Run()
	defer ba.Close()
	done := make(chan *Request, 1)
	if err := ba.Submit(&Request{Code: objects.CounterInc, AckPersist: true, done: done}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatalf("ack carried error: %v", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a batch at its admission limit waited for MaxWait instead of fencing")
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
