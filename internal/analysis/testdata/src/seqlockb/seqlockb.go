// Package seqlockb is the seqlockregion NEGATIVE fixture: the real
// tree's region idioms — ok-bailout, release-then-return, both-branch
// release, a release-annotated helper (adoptSlot), append into
// retained storage, atomic method calls while held. No diagnostics
// expected.
package seqlockb

import "sync/atomic"

type view struct {
	ver     uint64
	idx     uint64
	serves  atomic.Uint64
	state   []uint64
	pending []uint64
}

//onll:seqlock(acquire)
func (p *view) tryAcquire() (uint64, bool) {
	v := p.ver
	if v&1 != 0 {
		return 0, false
	}
	p.ver = v + 1
	return v, true
}

//onll:seqlock(release)
func (p *view) release(v uint64) { p.ver = v + 2 }

// adoptSlot releases internally: annotating it release ends its
// callers' regions at the call.
//
//onll:seqlock(release)
func (p *view) adoptSlot(v uint64) {
	p.idx++
	p.release(v)
}

func publish(p *view, idx uint64) {
	v, ok := p.tryAcquire()
	if !ok {
		return
	}
	if idx > p.idx {
		p.idx = idx
		p.state = append(p.state[:0], p.pending...)
	}
	p.release(v)
}

func serve(p *view, cheap bool) (uint64, bool) {
	v, ok := p.tryAcquire()
	if !ok {
		return 0, false
	}
	if p.idx == 0 {
		p.release(v)
		return 0, false
	}
	p.serves.Add(1)
	if cheap {
		p.release(v)
	} else {
		p.adoptSlot(v)
	}
	return p.idx, true
}

func stampLoop(p *view, nodes []uint64) {
	v, ok := p.tryAcquire()
	if !ok {
		return
	}
	for _, n := range nodes {
		if n > p.idx {
			p.idx = n
		}
	}
	p.release(v)
}
