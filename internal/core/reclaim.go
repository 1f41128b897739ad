package core

// Memory reclamation (Section 8): the compaction cut, the snapshot
// payload envelope, and the per-handle trace-node pool the cut makes
// reusable, with its quiescence rule.

import (
	"errors"
	"fmt"

	"repro/internal/spec"
	"repro/internal/trace"
)

// compact implements the Section 8 reclamation scheme after the update
// that created node: durably append a chain record covering the state
// at s = node.Idx() (one persistent fence) and truncate every earlier
// record of this process's log. A delta cut leaves the trace alone: its
// window must stay walkable for the next delta. A base cut also links
// node to a base node at index s, so the old prefix becomes unreachable
// for new walkers and its nodes become reusable. Recovery ignores logged
// operations with indices <= the newest chain head, so other
// processes' still-live records of old operations are harmless.
func (h *Handle) compact(node *trace.Node) error {
	s := node.Idx()
	if h.viewIdx != s {
		return fmt.Errorf("core: compact view at %d, node at %d", h.viewIdx, s)
	}
	done, foreign, err := h.tryDeltaCut(node)
	if done || err != nil {
		return err
	}
	slot, body, err := h.chainBaseAndTruncate(s)
	if err != nil {
		return err
	}
	if foreign {
		// This base was forced by a sentinel another handle spliced
		// inside our window, so the trace was already cut (and bounded)
		// at that sentinel moments ago. Splicing our own sentinel here
		// would land inside THAT handle's next window and force it to
		// collapse too — with two or more cutters the induced bases
		// ping-pong forever and no delta ever lands. Leave the trace
		// alone; the next clean-window base (oversize or scheduled
		// collapse) splices as usual.
		return nil
	}
	seqs, snap, _ := snapDecode(body)
	node.SetNextBase(trace.NewBase(s, snap, seqs))
	h.bases.idx[slot] = s
	// Publish the splice after it lands: newNode reuses below it.
	for c := h.in.cutIdx.Load(); c < s; c = h.in.cutIdx.Load() {
		if h.in.cutIdx.CompareAndSwap(c, s) {
			break
		}
	}
	return nil
}

// Snapshot payload layout on the persistent log: the covered-sequence
// vector (detectability across compaction) followed by the object state.
// snapEncode appends the envelope — the vector's length, then the
// vector — to dst; the caller appends the state (spec.State's
// AppendSnapshot, or a delta body) after it.
func snapEncode(dst, seqs []uint64) []uint64 {
	dst = append(dst, uint64(len(seqs)))
	return append(dst, seqs...)
}

func snapDecode(words []uint64) (seqs, state []uint64, err error) {
	if len(words) < 1 {
		return nil, nil, errors.New("core: empty snapshot payload")
	}
	n := int(words[0])
	if n < 0 || n > MaxProcs || 1+n > len(words) {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header %d", words[0])
	}
	return words[1 : 1+n : 1+n], words[1+n:], nil
}

// mergeSeqs raises dst entries to at least src's.
func mergeSeqs(dst, src []uint64) {
	for i := range dst {
		if i < len(src) && src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// maxFreeNodes is the smallest cap of a handle's own ring (freeCap);
// past its cap the ring forgets its oldest node to the garbage
// collector (pooling is an optimization, not a leak trade).
const maxFreeNodes = 1 << 12

// nodeRing holds the trace nodes a handle inserted, oldest first: n
// nodes from buf[head], circularly. Insertion order is index order.
type nodeRing struct {
	buf     []*trace.Node
	head, n int
}

func (r *nodeRing) pop() *trace.Node {
	nd := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return nd
}

// push appends nd; the ring must have room.
func (r *nodeRing) push(nd *trace.Node) {
	r.buf[(r.head+r.n)%len(r.buf)] = nd
	r.n++
}

// newNode returns a trace node for op. It reuses the handle's oldest
// own node when the reuse rule (see the floor field) declares it dead,
// and otherwise allocates; with freeCap holding a whole trace window,
// the steady state allocates nothing. The bound is computed once per cut
// index the handle observes; once the oldest node is not below it, the
// ring is not read again until the next cut.
//
//onll:hotpath
func (h *Handle) newNode(op spec.Op) *trace.Node {
	if c := h.in.cutIdx.Load(); c != h.reuseCut {
		h.reuseCut, h.reuseBelow = c, min(c, h.walkLimit())
	}
	r := &h.own
	if r.n > 0 && h.reuseBelow > 0 {
		if nd := r.buf[r.head]; nd.Idx() < h.reuseBelow {
			r.pop()
			nd.Reinit(op)
			r.push(nd)
			return nd
		}
		h.reuseBelow = 0
	}
	nd := trace.NewNode(op)
	h.keep(nd)
	return nd
}

// keep appends a fresh node to the own ring, forgetting the oldest
// nodes past freeCap and growing a full ring up to it.
func (h *Handle) keep(nd *trace.Node) {
	r := &h.own
	c := h.freeCap()
	for r.n >= c {
		r.pop()
	}
	if r.n == len(r.buf) {
		buf := make([]*trace.Node, min(max(2*r.n, 64), c))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.push(nd)
}

// walkLimit is the quiescence rule node reuse and the base-body reuse
// of deltacompact.go share: no in-flight walk can reach a node or a
// base whose index is below limit (the minimum published floor minus
// NProcs; see the floor field).
func (h *Handle) walkLimit() uint64 {
	minFloor := ^uint64(0)
	for _, other := range h.in.hands {
		minFloor = min(minFloor, other.floor.Load())
	}
	if slack := uint64(h.in.cfg.NProcs); minFloor > slack {
		return minFloor - slack
	}
	return 0
}

// freeCap is the own ring's bound: maxFreeNodes, or the trace window
// delta chains keep between trace cuts when that is wider — the
// MaxDeltaChain cadences of updates until the next trace cut, plus the
// NProcs+1 nodes at and below the cut that walkLimit's slack keeps — so
// the nodes one base cut makes reusable feed the updates until the
// next one and those allocate no node.
func (h *Handle) freeCap() int {
	return max(maxFreeNodes, h.in.cfg.MaxDeltaChain*h.cutEvery()+h.in.cfg.NProcs+1)
}
