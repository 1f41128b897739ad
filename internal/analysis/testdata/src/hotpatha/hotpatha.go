// Package hotpatha is the hotpath POSITIVE fixture. stage mirrors the
// real finding class from the first full-tree run: an un-gated
// time.Now on the batcher's per-request path.
package hotpatha

import (
	"sync"
	"sync/atomic"
	"time"
)

type ring struct {
	mu   sync.Mutex
	buf  []int64
	next int
}

//onll:hotpath
func (r *ring) stage(v int64) {
	t := time.Now().UnixNano() // want `un-gated clock read \(time\.Now\)`
	r.mu.Lock()                // want `lock acquisition \(\(\*sync\.Mutex\)\.Lock\)`
	r.buf = append(r.buf, t+v)
	r.mu.Unlock()
}

//onll:hotpath
func (r *ring) age() time.Duration {
	return time.Since(time.Unix(0, r.buf[0])) // want `un-gated clock read \(time\.Since\)`
}

//onll:hotpath
func (r *ring) grow(n int) {
	r.buf = make([]int64, n) // want `make allocates`
	f := func() {}           // want `closure allocates`
	f()
}

//onll:hotpath
func (r *ring) signal(ch chan int) {
	ch <- 1      // want `channel send`
	go r.grow(1) // want `goroutine launch`
}

//onll:hotpath
func (r *ring) slices() {
	r.buf = []int64{1, 2, 3} // want `slice/map literal allocates`
}

type handle struct {
	busy  uint32
	floor atomic.Uint64
	hits  uint64
}

// take and release mirror the core handle's misuse check, with every
// atomic write left unledgered or ledgered without a partner.
//
//onll:hotpath
func (h *handle) take() bool {
	h.floor.Store(1)                                  // want `atomic write \(\(\*sync/atomic\.Uint64\)\.Store\) in hotpath function take names no partner`
	h.floor.Add(1)                                    // want `atomic write \(\(\*sync/atomic\.Uint64\)\.Add\)`
	atomic.AddUint64(&h.hits, 1)                      // want `atomic write \(sync/atomic\.AddUint64\)`
	atomic.OrUint32(&h.busy, 0)                       // want `atomic write \(sync/atomic\.OrUint32\)`
	_ = h.floor.Swap(2)                               //onll:barrier() // want `atomic write \(\(\*sync/atomic\.Uint64\)\.Swap\)`
	return atomic.CompareAndSwapUint32(&h.busy, 0, 1) // want `atomic write \(sync/atomic\.CompareAndSwapUint32\)`
}
