// Package atomicb is the atomicmix NEGATIVE fixture: typed atomics,
// disciplined old-style atomics, and a deliberate single-goroutine
// plain write behind //onll:plainok. No diagnostics expected.
package atomicb

import "sync/atomic"

type gauge struct {
	val   uint64
	typed atomic.Uint64
}

func (g *gauge) set(v uint64)   { atomic.StoreUint64(&g.val, v) }
func (g *gauge) read() uint64   { return atomic.LoadUint64(&g.val) }
func (g *gauge) bump()          { g.typed.Add(1) }
func (g *gauge) typedV() uint64 { return g.typed.Load() }

func newGauge(v uint64) *gauge {
	g := &gauge{}
	g.val = v //onll:plainok(constructor: no concurrent accessor exists yet)
	return g
}
