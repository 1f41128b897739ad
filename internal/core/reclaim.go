package core

// Memory reclamation (Section 8): the compaction cut and its one call
// site, the snapshot payload envelope, and the per-handle trace-node
// pool the cut makes reusable, with its quiescence rule.

import (
	"errors"
	"fmt"

	"repro/internal/spec"
	"repro/internal/trace"
)

// cutIfDue is the order stage's compaction step, after enter and before
// the insert: the only place a handle cuts (DESIGN.md §3.7, §3.8), so a
// cut that fails leaves nothing ordered. A cut is due when the handle
// has ordered cutEvery ops since its last one, or when its log lacks
// room for the op's record (the pressure valve). It catches the view up
// to the latest available node, cuts there, resets the count and
// publishes the walk floor again. Every record of the log is the
// handle's own and at or below that node, so the cut covers all it
// truncates, into the line Room keeps free. A short log counts once in
// ValveFires and Spills; without a view it refuses the op with
// plog.ErrFull, and a failed cut, or a log still short after one, with
// ErrLogPressure. Only the owner appends to its log, so the room lasts
// until the handle's own commit uses it.
//
//onll:hotpath
func (h *Handle) cutIfDue() error {
	in := h.in
	log := in.logs[h.pid]
	short := log.Room(1)
	if short == nil {
		if ce := h.cutEvery(); ce == 0 || h.sinceCompact < ce {
			return nil
		}
	} else if h.view == nil {
		return fmt.Errorf("core: persist stage: %w", short)
	}
	node := trace.LatestAvailableFrom(in.gate, h.pid, in.tr.Tail(h.pid))
	if h.viewIdx < node.Idx() {
		h.advanceView(node)
	}
	if err := h.compact(node); err != nil {
		if short != nil {
			err = fmt.Errorf("%w: %w", ErrLogPressure, err)
		}
		return fmt.Errorf("core: compaction: %w", err)
	}
	h.sinceCompact = 0
	h.publishFloor()
	if short != nil {
		in.valveFires.Add(1) //onll:barrier(Pressure's load from a stats poller)
		log.AddSpills(1)
		if err := log.Room(1); err != nil {
			return fmt.Errorf("%w: %v after the cut", ErrLogPressure, err)
		}
	}
	return nil
}

// compact implements the Section 8 reclamation scheme at node, the
// latest available node cutIfDue caught the view up to: durably append
// a chain record covering the state at s = node.Idx() (one persistent
// fence) and truncate every earlier record of this process's log. A
// delta cut leaves the trace alone: its window must stay walkable for
// the next delta. A base cut also links node to a base node at index s,
// so the old prefix becomes unreachable for new walkers and its nodes
// become reusable. Recovery ignores logged operations with indices <=
// the newest chain head, so other processes' still-live records of old
// operations are harmless.
func (h *Handle) compact(node *trace.Node) error {
	s := node.Idx()
	done, foreign, err := h.tryDeltaCut(node)
	if done || err != nil {
		return err
	}
	// The base leg: a fresh chain base (or a collapse to one) of the
	// view, encoded once, and the truncate behind it.
	in, log := h.in, h.in.logs[h.pid]
	collapse := log.ChainLen() > 0
	slot, body := h.encodeBase()
	seq, err := log.AppendChainBase(body, s)
	if err != nil {
		return err
	}
	if seq > 1 {
		if err := log.Truncate(seq - 1); err != nil {
			return err
		}
	}
	if collapse {
		in.cmpCollapses.Add(1)
	}
	in.cmpBases.Add(1)
	in.cmpSnapWords.Add(uint64(len(body)))
	in.cmpFullWords.Add(uint64(len(body)))
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
	// node may be another handle's, and splicing after it is as safe:
	// it sits at the cut index this splice publishes, not below it, so
	// the reuse rule does not free it; our floor, at or below it since
	// enter, keeps its owner from reusing it while we splice; and two
	// handles that cut at one node write the same state
	// (TestTwoCutsAtOneNodeAgree).
	seqs, snap, _ := snapDecode(body)
	node.SetNextBase(trace.NewBase(s, snap, seqs))
	h.bases.idx[slot] = s
	// Publish the splice after it lands: newNode reuses below it.
	for c := in.cutIdx.Load(); c < s; c = in.cutIdx.Load() {
		if in.cutIdx.CompareAndSwap(c, s) {
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
