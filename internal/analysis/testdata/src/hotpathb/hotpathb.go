// Package hotpathb is the hotpath NEGATIVE fixture: the sample-gated
// EWMA clock probe, an allowlisted striped lock, stack struct
// literals, append into retained storage, and an unannotated function
// that may do anything. No diagnostics expected.
package hotpathb

import (
	"sync"
	"sync/atomic"
	"time"
)

type costs struct {
	mu      sync.Mutex
	samples int
	ewma    time.Duration
}

func (c *costs) sample() bool { c.samples++; return c.samples%16 == 0 }

// observe is the sample-gated EWMA helper shape: the clock reads only
// run behind the gate, and each carries its reason.
//
//onll:hotpath
func (c *costs) observe(run func()) {
	if c.sample() {
		start := time.Now() //onll:clockok(sample-gated EWMA probe: 1 in 16 after warmup)
		run()
		c.ewma = time.Since(start) //onll:clockok(sample-gated EWMA probe)
		return
	}
	run()
}

//onll:hotpath
func (c *costs) locked(f func()) {
	c.mu.Lock() //onll:lockok(striped shard lock: bounded section, never held across I/O)
	f()
	c.mu.Unlock()
}

type op struct{ code, a uint64 }

//onll:hotpath
func stageOp(code, a uint64, dst []op) []op {
	o := op{code: code, a: a}
	return append(dst, o)
}

//onll:hotpath
func ablation(dst []op) []op {
	return append(dst, []op{{1, 2}}...) //onll:allocok(ablation-only branch: measured, not hot by default)
}

//onll:hotpath
func deliver(ch chan op, o op) {
	ch <- o //onll:chanok(buffered ack delivery: the batcher is channel-structured by design)
}

func cold() []op { return make([]op, 4) }

type handle struct {
	busy  uint32
	floor atomic.Uint64
}

// take ledgers its atomic writes; loads need no ledger, and an
// unannotated function may write atomics freely.
//
//onll:hotpath
func (h *handle) take() uint64 {
	if !atomic.CompareAndSwapUint32(&h.busy, 0, 1) { //onll:barrier(a second taker's CAS)
		panic("busy")
	}
	h.floor.Store(1) //onll:barrier(the reclaimer's scan of the floors)
	return h.floor.Load() + uint64(atomic.LoadUint32(&h.busy))
}

func (h *handle) reset() { h.floor.Store(0) }
