package objects

import "repro/internal/spec"

// spec.Copier implementations for every shipped state: CopyFrom
// replaces the receiver with a deep copy of src while reusing the
// receiver's storage (slices, dense tables) when the shapes match, so
// a caller that overwrites the same destination over and over stays
// allocation-free in steady state — Clone (which always allocates)
// stays the right tool for one-shot copies.
//
// Each CopyFrom panics via the type assertion if src is a state of a
// different spec; core only ever pairs states created by the same
// Instance's spec.

// reuse copies src into dst, reusing dst's backing array when it is
// large enough (the steady state, where the same destination absorbs
// similarly-sized states over and over).
func reuse(dst, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		return append(dst[:0:0], src...)
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func (s *counterState) CopyFrom(src spec.State) { s.v = src.(*counterState).v }

func (s *registerState) CopyFrom(src spec.State) { s.v = src.(*registerState).v }

func (s *stackState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*stackState).xs) }

func (s *queueState) CopyFrom(src spec.State) {
	o := src.(*queueState)
	s.xs = reuse(s.xs, o.xs)
	s.head = o.head
}

func (s *dequeState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*dequeState).xs) }

func (s *setState) CopyFrom(src spec.State) { s.t.copyFrom(src.(*setState).t) }

func (s *mapState) CopyFrom(src spec.State) { s.t.copyFrom(src.(*mapState).t) }

func (s *pqState) CopyFrom(src spec.State) { s.h = reuse(s.h, src.(*pqState).h) }

func (s *logState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*logState).xs) }

func (s *bankState) CopyFrom(src spec.State) {
	o := src.(*bankState)
	clear(s.m)
	for k, v := range o.m {
		s.m[k] = v
	}
}

// omapState takes src's block shape as it is: the receiver's own blocks
// and spares are refilled before any is allocated, so a destination
// that has held a map this large copies without allocating.
func (s *omapState) CopyFrom(src spec.State) {
	o := src.(*omapState)
	s.setBlocks(len(o.blocks))
	for i := range o.blocks {
		b, ob := &s.blocks[i], &o.blocks[i]
		b.keys, b.vals = append(b.keys[:0], ob.keys...), append(b.vals[:0], ob.vals...)
	}
	copy(s.maxs, o.maxs)
	s.n = o.n
}
