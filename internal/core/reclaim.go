package core

// Memory reclamation (Section 8): the compaction cut, the snapshot
// payload envelope, and the trace-node pool the cut's severed segment
// feeds, with its quiescence rule.

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
// for new walkers and its nodes are reclaimed. Recovery ignores logged
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
	old := node.Next()
	seqs, snap, _ := snapDecode(body)
	node.SetNextBase(trace.NewBase(s, snap, seqs))
	h.bases.idx[slot] = s
	h.reclaim(old)
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

// maxFreeNodes caps a handle's deferred-promotion backlog, and its
// freelist unless the trace window is wider (freeCap); beyond the caps,
// retired nodes are dropped to the garbage collector (pooling is an
// optimization, not a leak trade).
const maxFreeNodes = 1 << 12

// newNode returns a trace node for op, reusing a pooled node when the
// freelist has one: steady-state updates under compaction allocate
// nothing (freeCap holds a whole trace window).
//
//onll:hotpath
func (h *Handle) newNode(op spec.Op) *trace.Node {
	if n := len(h.freeNodes); n > 0 {
		nd := h.freeNodes[n-1]
		h.freeNodes[n-1] = nil
		h.freeNodes = h.freeNodes[:n-1]
		nd.Reinit(op)
		return nd
	}
	return trace.NewNode(op)
}

// reclaim feeds the node pool after a compaction cut: old is the head of
// the trace segment the cut just made unreachable (the cut node's
// predecessor chain). The walk claims each update node with a CAS and
// stops at the first claim failure or non-update node, so two cuts
// racing over a not-yet-severed boundary partition the dead nodes
// cleanly — every earlier cut severed its own chain with a base node,
// which also terminates the walk.
//
// Claimed nodes wait in retired until provably quiescent, on two
// conditions checked at promotion time:
//
//  1. Floors. A node at index i is promoted only when i + NProcs < the
//     minimum published walk floor across handles (see the floor
//     field): mid-op handles block promotion of anything an ordinary
//     trace walk of theirs could still dereference.
//  2. Claim guards. Claim walks themselves can descend far below the
//     walker's own floor (a cutter that read a neighbour's cut-node
//     next pointer just before that neighbour's SetNextBase landed
//     walks into the neighbour's segment). Such a walker holds chain
//     pointers the floors do not cover, so each handle publishes a
//     claiming flag for the duration of its walk and promotion is
//     skipped entirely while any flag is up. A racing walker either
//     finished before the promotion check (its claim CAS already
//     failed against the claimed flag) or its guard is visible and
//     blocks the promotion — with sequentially consistent atomics
//     there is no third interleaving.
//
// Promotion being skipped is only a deferral: the nodes stay in
// retired and are re-examined at the next compaction (bounded by
// maxFreeNodes; beyond it they fall to the GC — pooling is an
// optimization, never a leak).
func (h *Handle) reclaim(old *trace.Node) {
	h.claiming.Store(true)
	for cur := old; cur != nil; {
		if !cur.TryClaim() {
			break // another cutter owns the rest of this segment
		}
		if cur.Kind != trace.KindUpdate {
			break // base or sentinel: never pooled
		}
		h.retired = append(h.retired, cur)
		cur = cur.Next()
	}
	h.claiming.Store(false)

	limit, ok := h.walkLimit()
	if !ok {
		h.capRetired()
		return
	}
	free := h.freeCap()
	kept := h.retired[:0]
	for _, n := range h.retired {
		switch {
		case n.Idx() >= limit:
			kept = append(kept, n) // possibly still walkable: retry later
		case len(h.freeNodes) < free:
			h.freeNodes = append(h.freeNodes, n)
		}
		// else: freelist full, drop to GC.
	}
	for i := len(kept); i < len(h.retired); i++ {
		h.retired[i] = nil
	}
	h.retired = kept
	h.capRetired()
}

// walkLimit is reclaim's quiescence rule, shared with the base-body
// reuse of deltacompact.go: no in-flight walk can reach a node or a base
// whose index is below limit (the minimum published floor minus NProcs;
// see the floor field). ok is false while another handle's claim walk is
// in flight, since such a walk may hold pointers no floor covers.
func (h *Handle) walkLimit() (limit uint64, ok bool) {
	minFloor := ^uint64(0)
	for _, other := range h.in.hands {
		if other != h && other.claiming.Load() {
			return 0, false
		}
		if f := other.floor.Load(); f < minFloor {
			minFloor = f
		}
	}
	if slack := uint64(h.in.cfg.NProcs); minFloor > slack {
		return minFloor - slack, true
	}
	return 0, true
}

// freeCap is the freelist's bound: maxFreeNodes, or the trace window
// delta chains keep between trace cuts (MaxDeltaChain cadences plus the
// fuzzy window) when that is wider, so a base cut's whole severed
// segment is pooled and the updates until the next one allocate no node.
func (h *Handle) freeCap() int {
	return max(maxFreeNodes, h.in.cfg.MaxDeltaChain*h.cutEvery()+h.in.cfg.NProcs)
}

// capRetired bounds the deferred-promotion backlog: claimed nodes past
// the cap are dropped to the garbage collector (they were claimed, so
// no other handle will ever pool them — they are simply garbage).
func (h *Handle) capRetired() {
	if len(h.retired) <= maxFreeNodes {
		return
	}
	drop := len(h.retired) - maxFreeNodes
	kept := h.retired[:0]
	kept = append(kept, h.retired[drop:]...)
	for i := len(kept); i < len(h.retired); i++ {
		h.retired[i] = nil
	}
	h.retired = kept
}
