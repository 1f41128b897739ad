package objects

import "repro/internal/spec"

// spec.Sizer implementations for every shipped state: SizeHint prices
// one spec.Copy of the state in 64-bit words, O(1) and allocation-free,
// so core's delta-cut policy can pace cuts by state size after every
// update (core/deltacompact.go).
// The hints measure what CopyFrom actually moves (backing arrays at
// their live length, table slots at capacity), not the snapshot wire
// format; a fixed +1 keeps even empty states non-zero, since 0 means
// "unknown" to spec.SizeHint. Snapshot buffers are sized from them
// (snapshotOf, and core's base bodies), so every hint must be at least
// the snapshot's length minus its two-word header.

// sizeWords prices a dense-table copy: meta bytes (packed 8/word) plus
// the key and value arrays copyFrom duplicates in full.
func (t *denseTable) sizeWords() int {
	w := 1 + len(t.meta)/8 + len(t.keys)
	if t.vals != nil {
		w += len(t.vals)
	}
	return w
}

func (s *counterState) SizeHint() int  { return 1 }
func (s *registerState) SizeHint() int { return 1 }
func (s *stackState) SizeHint() int    { return 1 + len(s.xs) }
func (s *queueState) SizeHint() int    { return 2 + len(s.xs) }
func (s *dequeState) SizeHint() int    { return 1 + len(s.xs) }
func (s *setState) SizeHint() int      { return s.t.sizeWords() }
func (s *mapState) SizeHint() int      { return s.t.sizeWords() }
func (s *pqState) SizeHint() int       { return 1 + len(s.h) }
func (s *logState) SizeHint() int      { return 1 + len(s.xs) }

// bankState copies through a Go map (clear + re-insert), which moves
// roughly two words per account and pays hashing on top; 2 words/entry
// is the right magnitude.
func (s *bankState) SizeHint() int { return 1 + 2*len(s.m) }

// omapState copies block by block: every pair plus the block index.
func (s *omapState) SizeHint() int { return 1 + 2*s.n + len(s.maxs) }

// Compile-time checks: every shipped state prices its copies.
var (
	_ spec.Sizer = (*counterState)(nil)
	_ spec.Sizer = (*registerState)(nil)
	_ spec.Sizer = (*stackState)(nil)
	_ spec.Sizer = (*queueState)(nil)
	_ spec.Sizer = (*dequeState)(nil)
	_ spec.Sizer = (*setState)(nil)
	_ spec.Sizer = (*mapState)(nil)
	_ spec.Sizer = (*pqState)(nil)
	_ spec.Sizer = (*logState)(nil)
	_ spec.Sizer = (*bankState)(nil)
	_ spec.Sizer = (*omapState)(nil)
)
