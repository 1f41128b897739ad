package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one update's journey through the batcher, flat and
// CSV-friendly. The first block is the request proper, the second the
// outcome, the third the timeline:
//
//	EnqueueNs — submitted to the batcher's queue (client side of the
//	            server: the moment the frame was parsed)
//	StageNs   — admitted to the open batch: ordered, its return value
//	            computed
//	PersistNs — the covering flush fence completed (0 until then)
//	RespondNs — the response frame was written to the client
//
// A response leaves only after its covering fence, so every row reads
// RespondNs >= PersistNs. PersistNs and RespondNs are atomics because
// they are stamped by different goroutines (batcher and connection
// writer) after the response may already be in flight; everything else
// is written by one goroutine before the request changes hands.
type Request struct {
	Tag   uint32 // client correlation tag, echoed in the response
	Code  uint64
	Args  [3]uint64
	NArgs uint8

	Ret uint64
	ID  uint64
	Err error

	EnqueueNs int64
	StageNs   int64
	PersistNs atomic.Int64
	RespondNs atomic.Int64

	// done receives the request back after its covering flush fence
	// (or at once, if it could not be staged).
	done chan *Request
}

func (r *Request) args() []uint64 { return r.Args[:r.NArgs] }

// CSVHeader is the column row matching Request.CSVRow. The ack column
// always reads "persist", the one ack point.
const CSVHeader = "tag,code,ack,ret,id,err,enqueue_ns,stage_ns,persist_ns,respond_ns"

// CSVRow renders the request as one CSV line (no trailing newline).
func (r *Request) CSVRow() string {
	errv := 0
	if r.Err != nil {
		errv = 1
	}
	return fmt.Sprintf("%d,%d,persist,%d,%d,%d,%d,%d,%d,%d",
		r.Tag, r.Code, r.Ret, r.ID, errv,
		r.EnqueueNs, r.StageNs, r.PersistNs.Load(), r.RespondNs.Load())
}

// timingRing keeps the most recent flushed requests for CSV export. A
// disarmed ring (Config.TimingCap < 0) retains nothing AND gates off
// every per-request clock read: nowNs is the single place the request
// timeline touches the clock, so the capture cost is zero when capture
// is off — the same discipline as the core cost model's sample-gated
// EWMA probes, enforced by the hotpath analyzer on the batcher.
type timingRing struct {
	armed bool
	mu    sync.Mutex
	buf   []*Request
	next  int
	full  bool
}

func newTimingRing(n int) *timingRing {
	if n < 0 {
		return &timingRing{} // disarmed: no retention, no clock reads
	}
	if n == 0 {
		n = 1 << 14
	}
	return &timingRing{armed: true, buf: make([]*Request, n)}
}

// nowNs is the request timeline's only clock read, gated on the ring
// being armed: timestamps are meaningless without the ring that
// retains them, and a server run with capture disabled must not pay
// clock reads per request.
//
//onll:hotpath
func (t *timingRing) nowNs() int64 {
	if !t.armed {
		return 0
	}
	return time.Now().UnixNano() //onll:clockok(timing capture: armed ring only, gated off with TimingCap < 0)
}

func (t *timingRing) add(r *Request) {
	if !t.armed {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = r
	t.next++
	if t.next == len(t.buf) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
}

// dump writes the retained timings, oldest first, as CSV.
func (t *timingRing) dump(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	emit := func(r *Request) error {
		_, err := fmt.Fprintln(w, r.CSVRow())
		return err
	}
	if t.full {
		for _, r := range t.buf[t.next:] {
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	for _, r := range t.buf[:t.next] {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}
