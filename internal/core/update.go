package core

// The update pipeline (Section 3.2, Listing 3): order — with the one
// compaction cut site (cutIfDue, reclaim.go) before the insert —,
// compute the return value on the ordered prefix, then commit: persist
// the fuzzy window with one fence, and linearize. Update is the one-op
// case; Batch (batch.go) orders many operations and commits them at
// once.

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/trace"
)

// Update executes the update operation (code, args) through the
// order/persist/linearize pipeline (paper Listing 3). It returns the
// operation's return value and its unique id (usable with
// Report.WasLinearized after a crash). The persist stage issues exactly
// one persistent fence; a compaction cut the order stage makes before
// the insert adds its own two (cutIfDue).
//
// Every error comes from the order stage, with id 0, and means nothing
// was ordered: quarantine, a log without room for the op's record
// (plog.ErrFull, ErrLogPressure), or a failed cut.
//
//onll:hotpath
func (h *Handle) Update(code uint64, args ...uint64) (ret, id uint64, err error) {
	node, err := h.order(code, args)
	if err != nil {
		return 0, 0, err
	}
	defer h.exit()
	// The return value is fixed by node's position in the trace.
	// seenEpoch is deliberately NOT refreshed here, so the handle's next
	// read revalidates with a walk: computeUpdate advances the view only
	// to OUR node, while an epoch loaded now also covers concurrently
	// published nodes with HIGHER indices (ordered after us, linearized
	// before us) that the view does not reflect — recording it would let
	// the next fast read miss an operation that completed before it.
	// Read's epoch is safe precisely because its walk reaches the latest
	// available node from the tail, not a fixed one.
	ret = h.computeUpdate(node)
	h.commit(node)
	h.in.gate.Step(h.pid, PointReturn)
	return ret, node.Op.ID, nil
}

// commit persists and linearizes the ordered operations ending at
// last, whose return values the caller has computed. The persist stage
// is one log append of the fuzzy window from last (helping delayed
// processes, and a batch's own staged nodes) with ONE persistent fence;
// Append copies the ops into NVM, so the window may be scratch, and
// takes the lines the window needs. It cannot fail: order checked the
// room, and the window is within Config.LogMaxOps. SetAvailable(last)
// then linearizes the whole prefix below last (Section 5.2). The handle
// must be entered, its view (if any) at last.
//
//onll:hotpath
func (h *Handle) commit(last *trace.Node) {
	in := h.in
	h.fuzzyBuf = trace.GetFuzzyOpsInto(h.fuzzyBuf, in.gate, h.pid, last)
	ops := h.fuzzyBuf
	if in.cfg.UnsafeNoHelping {
		// ABLATION (E13): persist only the newest operation.
		ops = ops[:1]
	}
	if in.cfg.UnsafeLinearizeFirst {
		// ABLATION (E13): linearize before persisting — the ordering
		// Section 3.1 proves unsound. Readers can now expose this op
		// before it is durable.
		in.tr.SetAvailable(h.pid, last)
	}
	if _, err := in.logs[h.pid].Append(ops, last.Idx()); err != nil {
		panic(fmt.Sprintf("core: persist stage after the room check: %v", err))
	}
	in.gate.Step(h.pid, PointPersisted)
	if !in.cfg.UnsafeLinearizeFirst {
		in.tr.SetAvailable(h.pid, last)
	}
}

// order runs the order stage for (code, args): the quarantine check,
// enter, the compaction cut when one is due (cutIfDue, which also
// checks that the op's record fits), and insert. An op is ordered only
// when its record fits, so a handle never holds an ordered op it cannot
// persist (Proposition 5.2's premise). On success the caller must exit
// the handle; on failure it is released.
//
//onll:hotpath
func (h *Handle) order(code uint64, args []uint64) (*trace.Node, error) {
	if qerr := h.in.quarErr(); qerr != nil {
		return nil, qerr
	}
	h.enter()
	if err := h.cutIfDue(); err != nil {
		h.exit()
		return nil, err
	}
	return h.insert(code, args), nil
}

// insert gives (code, args) the handle's next op id and a pooled node,
// and inserts it into the trace, which fixes the operation's
// linearization order; it counts the op toward the compaction cadence.
// The CAS inside the insert is a concurrency fence but no NVM
// write-back is pending, so it is not a persistent fence (paper
// footnote 2). The handle must be entered.
//
//onll:hotpath
func (h *Handle) insert(code uint64, args []uint64) *trace.Node {
	h.seq++
	h.sinceCompact++
	op := spec.Op{Code: code, ID: spec.MakeID(h.pid, h.seq)}
	copy(op.Args[:], args)
	node := h.newNode(op)
	h.in.tr.Insert(h.pid, node)
	h.in.gate.Step(h.pid, PointOrdered)
	return node
}

// computeUpdate returns node.Op's value on the prefix ending at node,
// advancing the local view when enabled. The view then holds operations
// that are not yet linearized; the handle stays entered until commit
// makes them available.
//
//onll:hotpath
func (h *Handle) computeUpdate(node *trace.Node) uint64 {
	if h.view != nil && h.viewIdx < node.Idx() {
		return h.advanceView(node)
	}
	// No local view, or (defensively) a view that has somehow moved
	// past node.
	_, ret := h.replay(node)
	return ret
}
