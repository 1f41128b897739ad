package core

// The update pipeline (Section 3.2, Listing 3): order, persist,
// linearize, then the compaction cadence. Update runs the stages in
// that order; Batch (batch.go) calls the same steps with linearize
// before persist.

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/trace"
)

// Update executes the update operation (code, args) through the
// order/persist/linearize pipeline (paper Listing 3). It returns the
// operation's return value and its unique id (usable with
// Report.WasLinearized after a crash). The call issues exactly one
// persistent fence (plus, every CompactEvery updates, the compaction
// snapshot's fence).
//
//onll:hotpath
func (h *Handle) Update(code uint64, args ...uint64) (ret, id uint64, err error) {
	node, err := h.order(code, args)
	if err != nil {
		return 0, 0, err
	}
	defer h.exit()
	id = node.Op.ID
	in := h.in

	// Persist this operation plus the fuzzy window before it (helping
	// delayed processes).
	h.fuzzyBuf = trace.GetFuzzyOpsInto(h.fuzzyBuf, in.gate, h.pid, node)
	fuzzy := h.fuzzyBuf
	if in.cfg.UnsafeNoHelping {
		// ABLATION (E13): persist only our own operation.
		fuzzy = []spec.Op{node.Op} //onll:allocok(E13 ablation branch only; the production path reuses fuzzyBuf)
	}
	if in.cfg.UnsafeLinearizeFirst {
		// ABLATION (E13): linearize before persisting — the ordering
		// Section 3.1 proves unsound. Readers can now expose this op
		// before it is durable.
		in.tr.SetAvailable(h.pid, node)
	}
	if err = h.persist(fuzzy, node); err != nil {
		return 0, id, err
	}

	// Linearize: make the operation visible to readers.
	if !in.cfg.UnsafeLinearizeFirst {
		in.tr.SetAvailable(h.pid, node)
	}

	// Compute the return value on the state up to and including node.
	// seenEpoch is deliberately NOT refreshed here, so the handle's next
	// read revalidates with a walk: computeUpdate advances the view only
	// to OUR node, while an epoch loaded now also covers concurrently
	// published nodes with HIGHER indices (ordered after us, linearized
	// before us) that the view does not reflect — recording it would let
	// the next fast read miss an operation that completed before it.
	// Read's epoch is safe precisely because its walk reaches the latest
	// available node from the tail, not a fixed one.
	ret = h.computeUpdate(node)
	err = h.cutCadence(node, 1)
	in.gate.Step(h.pid, PointReturn)
	return ret, id, err
}

// order runs the order stage for (code, args): the quarantine check,
// enter, the op's id, a pooled node, and its insert into the trace,
// which fixes the operation's linearization order. The CAS inside the
// insert is a concurrency fence but no NVM write-back is pending, so it
// is not a persistent fence (paper footnote 2). On success the handle
// is entered and the caller must exit it.
//
//onll:hotpath
func (h *Handle) order(code uint64, args []uint64) (*trace.Node, error) {
	in := h.in
	if qerr := in.quarErr(); qerr != nil {
		return nil, qerr
	}
	h.enter()
	h.seq++
	op := spec.Op{Code: code, ID: spec.MakeID(h.pid, h.seq)}
	copy(op.Args[:], args)
	node := h.newNode(op)
	in.tr.Insert(h.pid, node)
	in.gate.Step(h.pid, PointOrdered)
	return node, nil
}

// persist runs the persist stage: one log append of ops, the record
// whose newest operation is node's, with ONE persistent fence. Append
// copies the ops into NVM and retains nothing, so ops may be scratch.
// The record is assembled against the log's inline budget transparently
// (a window deeper than Config.LogInlineOps spills to the overflow ring
// inside the same single-fence append), and an append the ring refuses
// takes the pressure valve (valve.go).
//
//onll:hotpath
func (h *Handle) persist(ops []spec.Op, node *trace.Node) error {
	in := h.in
	if _, err := in.logs[h.pid].Append(ops, node.Idx()); err != nil {
		if err = h.persistWithValve(ops, node, err); err != nil {
			return fmt.Errorf("core: persist stage: %w", err)
		}
	}
	in.gate.Step(h.pid, PointPersisted)
	return nil
}

// computeUpdate returns node.Op's value on the prefix ending at node,
// advancing the local view when enabled.
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

// cutCadence counts n persisted updates toward the handle's compaction
// cadence and, when a cut is due, cuts at node (the newest of them).
func (h *Handle) cutCadence(node *trace.Node, n int) error {
	ce := h.cutEvery()
	if ce == 0 {
		return nil
	}
	h.sinceCompact += n
	if h.sinceCompact < ce {
		return nil
	}
	h.sinceCompact = 0
	if err := h.compact(node); err != nil {
		return fmt.Errorf("core: compaction: %w", err)
	}
	return nil
}
