// Package server is the batched network front end over one ONLL
// instance (DESIGN.md §3.10): it maps client connections onto the
// construction's simulated processes and amortizes the paper's
// one-fence-per-update cost across whole batches of client requests —
// one log append and ONE persistent fence cover everything staged
// since the previous flush, so measured persists-per-request drops
// below 1 as soon as batches exceed one op.
//
// Every update keeps the paper's per-op guarantee: its response leaves
// only after the flush fence that covers it, and the flush is what
// linearizes the batch, so no reader observes an update a crash can
// still erase. Every response carries the op id, so after a crash
// Report.WasLinearized(id) tells a client whose connection died before
// the response whether its update survived.
package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// ErrServerClosed is returned for requests submitted after shutdown
// began.
var ErrServerClosed = errors.New("server: closed")

// BatcherConfig bounds the batch; the flush trigger itself has no
// setting (Batcher.Run).
type BatcherConfig struct {
	// MaxBatch caps the ops one fence covers. It must leave headroom
	// under the instance's Config.LogMaxOps for the helping tail
	// (core.Batch.Limit); NewBatcher clamps it there, so a full batch
	// fences before core.Batch has to refuse an op.
	MaxBatch int
	// MaxWait is ignored since PR 19: the batcher has no timer. Kept only
	// until the next benchmark PR drops bench/config.go's svcMaxWait.
	MaxWait time.Duration
}

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
}

// Batcher owns one updating handle and runs the stage-on-arrival loop:
// every request is ordered the moment it is dequeued, and the flush
// fence runs as soon as the queue is dry or the batch is full (group
// commit), releasing the responses.
type Batcher struct {
	batch *core.Batch
	cfg   BatcherConfig
	in    chan *Request

	mu     sync.Mutex // guards closed vs Submit
	closed bool

	pending []*Request // staged, awaiting the covering fence
	ring    *timingRing

	updates atomic.Uint64
	flushes atomic.Uint64
	batched atomic.Uint64 // sum of flush batch sizes (avg = batched/flushes)
	killed  atomic.Bool   // a crash gate killed the loop (tests)

	stopped chan struct{}
}

// NewBatcher wraps the handle in a batcher; the batch holds the handle
// while ops are staged, so nothing else may use it. Call Run in a
// goroutine, Submit from any, Close to drain.
func NewBatcher(h *core.Handle, ring *timingRing, cfg BatcherConfig) *Batcher {
	cfg.fill()
	b := h.NewBatch()
	if cfg.MaxBatch > b.Limit() {
		cfg.MaxBatch = b.Limit()
	}
	if ring == nil {
		ring = newTimingRing(0)
	}
	return &Batcher{
		batch:   b,
		cfg:     cfg,
		in:      make(chan *Request, 4*cfg.MaxBatch),
		ring:    ring,
		stopped: make(chan struct{}),
	}
}

// Submit queues the request; its done channel receives it back at the
// ack point. Returns ErrServerClosed after Close.
//
//onll:hotpath
func (ba *Batcher) Submit(r *Request) error {
	r.EnqueueNs = ba.ring.nowNs()
	ba.mu.Lock() //onll:lockok(closed-flag guard held across the queue send so Close cannot close ba.in under a sender; a full queue blocks Close too: ROADMAP overload item)
	if ba.closed {
		ba.mu.Unlock()
		return ErrServerClosed
	}
	ba.in <- r //onll:chanok(request queue: the batcher is channel-structured by design)
	ba.mu.Unlock()
	return nil
}

// Close drains: no further Submits are accepted, everything queued is
// staged, the final flush fences it, and all responses are delivered
// before Close returns.
func (ba *Batcher) Close() {
	ba.mu.Lock()
	if !ba.closed {
		ba.closed = true
		close(ba.in)
	}
	ba.mu.Unlock()
	<-ba.stopped
}

// Killed reports whether a crash-injection gate terminated the loop
// (the simulated machine died; undelivered responses are the lost
// suffix).
func (ba *Batcher) Killed() bool { return ba.killed.Load() }

// Run is the batcher loop, the group-commit rule: block for a request
// only while nothing is staged; stage whatever else is already queued,
// up to MaxBatch; fence. A batch is therefore what arrived while the
// previous stage + fence was in flight — its size follows the load, a
// lone request is fenced at once, and no request waits on a clock.
//
// It exits when Close drains the queue — or, under a crash-injection
// gate, when a kill fires inside a stage or flush, in which case the
// loop dies exactly like a process in the crash harness: responses not
// yet delivered never will be.
func (ba *Batcher) Run() {
	defer close(ba.stopped)
	defer func() {
		if r := recover(); r != nil {
			if sched.IsKilled(r) {
				ba.killed.Store(true)
				return
			}
			panic(r)
		}
	}()
	for r := range ba.in {
		ba.stage(r)
		if len(ba.in) == 0 || len(ba.pending) >= ba.cfg.MaxBatch {
			ba.flush()
		}
	}
}

// stage runs the order stage for one request; its response waits for
// the covering flush. ErrBatchFull (MaxBatch should flush first, or the
// log lacks room for a split-off record) flushes and retries once; the
// retry is a batch's first Stage, so a request that still fails was
// never ordered, and nothing else is staged.
//
//onll:hotpath
func (ba *Batcher) stage(r *Request) {
	r.StageNs = ba.ring.nowNs()
	ret, id, err := ba.batch.Stage(r.Code, r.args()...)
	if errors.Is(err, core.ErrBatchFull) {
		ba.flush()
		ret, id, err = ba.batch.Stage(r.Code, r.args()...)
	}
	r.Ret, r.ID, r.Err = ret, id, err
	ba.updates.Add(1) //onll:barrier(Stats load of the counter from another goroutine)
	if err != nil {
		// Never ordered: respond now, and do not hold it for a fence
		// that will not cover it.
		r.done <- r //onll:chanok(ack delivery: buffered response channel, batcher structure)
		return
	}
	ba.pending = append(ba.pending, r)
}

// flush fences everything staged and releases the responses. The fence
// covers every pending request at once — this is the whole
// amortization. A flush cannot fail (core.Batch.Flush), so every
// pending request is acked: only a request Stage refused, never
// ordered, carries an error.
//
//onll:hotpath
func (ba *Batcher) flush() {
	if len(ba.pending) == 0 {
		return
	}
	_ = ba.batch.Flush()                    // always nil: the cut runs in the order stage
	ba.flushes.Add(1)                       //onll:barrier(Stats load of the counter from another goroutine)
	ba.batched.Add(uint64(len(ba.pending))) //onll:barrier(Stats load of the counter from another goroutine)
	now := ba.ring.nowNs()
	for _, r := range ba.pending {
		r.PersistNs.Store(now) //onll:barrier(the timing row the connection writer reads after the response may be in flight)
		r.done <- r            //onll:chanok(ack delivery: buffered response channel)
		ba.ring.add(r)
	}
	ba.pending = ba.pending[:0]
}

// BatcherStats is a consistent-enough snapshot of the batcher's
// volatile counters (each field individually atomic).
type BatcherStats struct {
	Updates uint64 // update requests the batcher took, ordered or refused unordered
	Flushes uint64 // fences issued by the batcher
	Batched uint64 // sum of flushed batch sizes
}

// Stats snapshots the counters.
func (ba *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Updates: ba.updates.Load(),
		Flushes: ba.flushes.Load(),
		Batched: ba.batched.Load(),
	}
}
