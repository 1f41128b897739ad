package core

// The read path (Listing 4 and the Section 8 local views): the epoch
// check, the walk to the latest available node, the view catch-up, and
// the plain replay for handles without a view.

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/trace"
)

// Read executes the read-only operation (code, args) (paper Listing 4).
// It issues no persistent fence and writes nothing shared beyond the
// handle's own reclamation floor.
//
// A handle with a local view takes one of two routes: an epoch hit
// answers from the view, anything else walks. The epoch check happens
// before the walk floor is published: the fast route dereferences no
// trace node, so it needs no reclamation cover, and a fast read costs
// the busy CAS, one epoch load and the view read; the release is a plain
// store. The floor store is deferred to the walk. A handle without a
// view always walks and replays (Section 3).
//
//onll:hotpath
func (h *Handle) Read(code uint64, args ...uint64) uint64 {
	if qerr := h.in.quarErr(); qerr != nil {
		// Read's signature predates quarantine and cannot return an
		// error; callers that must survive a quarantined object use
		// TryRead (health.go).
		panic(qerr)
	}
	h.take()
	defer h.release()
	op := spec.Op{Code: code}
	copy(op.Args[:], args)
	in := h.in
	var epoch uint64
	if h.view != nil {
		// Load the epoch BEFORE the tail read below: any operation
		// whose publication the loaded value covers already has its
		// available flag set, so the walk is guaranteed to reach a node
		// at or above it — recording this value after the walk is what
		// makes the next epoch match proof of an up-to-date view.
		epoch = in.tr.Epoch(h.pid)
		if epoch == h.seenEpoch {
			ret := h.view.Read(op)
			in.gate.Step(h.pid, PointReturn)
			return ret
		}
	}
	// Publish the walk floor BEFORE any trace read (sequentially
	// consistent store): reclamation reads it to prove quiescence.
	h.floor.Store(h.viewIdx)        //onll:barrier(walkLimit's scan of the floors: no node this walk reaches is reused)
	defer h.floor.Store(^uint64(0)) //onll:barrier(walkLimit's scan of the floors: an idle handle holds no node back)
	node := trace.LatestAvailableFrom(in.gate, h.pid, in.tr.Tail(h.pid))
	ret := h.computeRead(node, op)
	h.seenEpoch = epoch
	in.gate.Step(h.pid, PointReturn)
	return ret
}

// computeRead returns op's value on the prefix ending at node.
//
//onll:hotpath
func (h *Handle) computeRead(node *trace.Node, op spec.Op) uint64 {
	if h.view != nil {
		if h.viewIdx < node.Idx() {
			h.advanceView(node)
		}
		// If viewIdx > node.Idx(), the view already reflects
		// operations this process has itself observed as linearized;
		// serving the read from it is still linearizable (the read
		// linearizes after them).
		return h.view.Read(op)
	}
	st, _ := h.replay(node)
	return st.Read(op)
}

// advanceView applies the operations between the view and node to the
// local view and returns the value of the last one applied (node's own
// operation): the Section 8 loop. If the walk meets a compaction base
// newer than the view, the view is restored from the base first, so a
// handle idle across any number of cuts replays at most the window
// above the newest base, never its whole lag.
//
//onll:hotpath
func (h *Handle) advanceView(node *trace.Node) uint64 {
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, h.viewIdx)
	h.nodeBuf = nodes
	if base != nil && base.Idx() > h.viewIdx {
		if err := h.view.Restore(base.Snap); err != nil {
			panic(fmt.Sprintf("core: corrupt base snapshot: %v", err))
		}
		h.viewIdx = base.Idx()
		mergeSeqs(h.viewSeqs, base.Seqs)
	}
	ret := spec.RetOK
	for _, n := range nodes {
		ret = h.view.Apply(n.Op)
		h.viewIdx = n.Idx()
		if pid, seq := spec.SplitID(n.Op.ID); pid >= 0 && pid < len(h.viewSeqs) && seq > h.viewSeqs[pid] {
			h.viewSeqs[pid] = seq
		}
	}
	return ret
}

// replay is the plain Section 3 computation: a fresh state holding the
// prefix ending at node, rebuilt from the nearest base (or INITIALIZE),
// and the value of the last operation applied (node's own, for an
// update node).
//
//onll:hotpath
func (h *Handle) replay(node *trace.Node) (spec.State, uint64) {
	st := h.in.sp.New()
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, 0)
	h.nodeBuf = nodes
	if base != nil {
		if err := st.Restore(base.Snap); err != nil {
			panic(fmt.Sprintf("core: corrupt base snapshot: %v", err))
		}
	}
	ret := spec.RetOK
	for _, n := range nodes {
		ret = st.Apply(n.Op)
	}
	return st, ret
}
