package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config parameterizes New.
type Config struct {
	// Batcher bounds the batch one fence covers.
	Batcher BatcherConfig
	// TimingCap bounds the retained per-request timing records
	// (DumpTimings). Zero selects a default; negative disables capture
	// entirely — no records retained and, with them, no per-request
	// clock reads anywhere on the request path (timingRing.nowNs is the
	// single gated read).
	TimingCap int
}

// Server maps client connections onto one ONLL instance: all updates
// funnel through the batcher owning Handle(0), each answered after the
// flush fence that covers it, and reads run fence-free on the remaining
// handles, one per connection round-robin (connections sharing a read
// handle serialize on its mutex, which models more clients than
// simulated processes). A read is answered as soon as it is served, so
// on a pipelined connection it can overtake updates sent before it that
// still wait for their fence. The instance must have NProcs >= 2 so at
// least one read handle exists.
type Server struct {
	in   *core.Instance
	ba   *Batcher
	ring *timingRing

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	reads []readSlot
	nconn atomic.Uint64
	rops  atomic.Uint64
}

type readSlot struct {
	mu sync.Mutex
	h  *core.Handle
}

// New builds a server over the instance. The instance's Handle(0) is
// handed to the batcher and must not be used elsewhere.
func New(in *core.Instance, cfg Config) (*Server, error) {
	if in.NProcs() < 2 {
		return nil, fmt.Errorf("server: instance has %d processes, need >= 2 (one updater + readers)", in.NProcs())
	}
	ring := newTimingRing(cfg.TimingCap)
	s := &Server{
		in:    in,
		ba:    NewBatcher(in.Handle(0), ring, cfg.Batcher),
		ring:  ring,
		conns: map[net.Conn]struct{}{},
	}
	for pid := 1; pid < in.NProcs(); pid++ {
		s.reads = append(s.reads, readSlot{h: in.Handle(pid)})
	}
	return s, nil
}

// Listen binds the server to network/addr ("tcp", "unix") and starts
// the batcher and accept loops. It returns once the listener is ready;
// Addr reports the bound address.
func (s *Server) Listen(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.ba.Run()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listener address (after Listen).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Close drains and shuts down: stop accepting, let the batcher stage
// and fence everything already queued, deliver every response, then
// tear down connections. In-flight requests are answered, not dropped.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.ln.Close()
	// Drain the batcher first so every accepted update gets its
	// response before its connection goes away.
	s.ba.Close()
	// Stop the READ side only: connection readers unblock and fall
	// into their drain path, while the writers finish delivering the
	// drained responses over the still-open write side. handleConn
	// closes each connection fully once its writer is done.
	s.mu.Lock()
	for c := range s.conns {
		closeRead(c)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// closeRead half-closes the connection's read side where the transport
// supports it, falling back to an immediate read deadline.
func closeRead(c net.Conn) {
	switch tc := c.(type) {
	case *net.TCPConn:
		tc.CloseRead()
	case *net.UnixConn:
		tc.CloseRead()
	default:
		c.SetReadDeadline(time.Unix(0, 1))
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	slot := &s.reads[int(s.nconn.Add(1))%len(s.reads)]

	respCh := make(chan *Request, 256)
	var inflight sync.WaitGroup
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(conn)
		for r := range respCh {
			werr := writeResponse(bw, r.Tag, statusOf(r.Err), r.Ret, r.ID)
			// Flush when the queue is momentarily empty: batches of
			// responses coalesce into one syscall, a lone response
			// leaves immediately.
			if werr == nil && len(respCh) == 0 {
				werr = bw.Flush()
			}
			r.RespondNs.Store(s.ring.nowNs())
			inflight.Done()
			_ = werr // a dead client only ends the conn via the reader
		}
		bw.Flush()
	}()

	br := bufio.NewReader(conn)
	for {
		tag, kind, code, args, nargs, err := readRequest(br)
		if err != nil {
			break // io.EOF on clean client close
		}
		r := &Request{Tag: tag, Code: code, Args: args, NArgs: nargs, done: respCh}
		switch kind {
		case KindRead:
			s.serveRead(slot, r)
			inflight.Add(1)
			respCh <- r
		case KindUpdate, KindUpdatePersist, KindUpdateLinearize:
			inflight.Add(1)
			if serr := s.ba.Submit(r); serr != nil {
				r.Err = serr
				respCh <- r
			}
		default:
			inflight.Add(1)
			r.Err = fmt.Errorf("server: unknown request kind %q", kind)
			respCh <- r
		}
	}
	// Drain: every submitted update's response must be written before
	// the writer goes away (the batcher delivers them on respCh).
	inflight.Wait()
	close(respCh)
	<-writerDone
}

// serveRead answers one read request on the connection's read slot,
// bypassing the batcher entirely: 0 persistent fences, served on the
// slot's handle. Reads never observe a staged update: the flush fences
// a batch before it linearizes it. A quarantined instance
// answers with its typed error (TryRead), never a panic that would take
// the whole server down. The readpath annotation
// makes the fencepath analyzer prove the 0-pfence claim transitively
// (nothing reachable from here may touch a pmem store or fence), and
// hotpath keeps the serve loop allocation- and clock-free.
//
//onll:readpath
//onll:hotpath
func (s *Server) serveRead(slot *readSlot, r *Request) {
	slot.mu.Lock() //onll:lockok(per-connection read-handle guard: models more clients than pids, never held across I/O)
	r.Ret, r.Err = slot.h.TryRead(r.Code, r.args()...)
	slot.mu.Unlock()
	s.rops.Add(1)
}

// Stats aggregates server-side counters.
type Stats struct {
	BatcherStats
	Reads uint64 // read requests served (fence-free)
	Conns uint64 // connections accepted over the server's lifetime
}

// Stats snapshots the counters. Safe to call concurrently with
// request traffic (each field is individually atomic — this is the
// polling surface the torn-read audit covers).
func (s *Server) Stats() Stats {
	return Stats{
		BatcherStats: s.ba.Stats(),
		Reads:        s.rops.Load(),
		Conns:        s.nconn.Load(),
	}
}

// Instance exposes the underlying object (stats polling, bench
// accounting).
func (s *Server) Instance() *core.Instance { return s.in }

// DumpTimings writes the retained per-request timing records as CSV.
func (s *Server) DumpTimings(w io.Writer) error { return s.ring.dump(w) }
