package core

// The log-pressure valve (DESIGN.md §3.7). The overflow ring is sized
// at a fraction of the worst case, so a run of deep fuzzy windows can
// exhaust it. The order stage finds that out before it inserts, and a
// short ring gets one relief there, before anything is ordered:
//
//   - A handle with a local view catches the view up to the latest
//     available node, lays a chain base there and truncates its log
//     behind it. Every record of the log is the handle's own and at or
//     below that node, so the base covers all it truncates. Chain
//     bodies live outside the ring, so the truncate frees every chunk.
//   - A handle without a view has no state to cut: it replaces its log
//     with one whose ring is twice the size.

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/trace"
)

// relieve answers the order stage's room check error err. A short ring
// gets the relief; when it fails, or the ring is still short after it,
// the op fails with ErrLogPressure. Only the owner appends to its log,
// so the room lasts until the handle's own commit uses it. The handle
// must be entered.
func (h *Handle) relieve(err error) error {
	if !errors.Is(err, plog.ErrOvfFull) {
		return err
	}
	in := h.in
	in.valveFires.Add(1)
	in.logs[h.pid].AddSpills(1)
	var rerr error
	if h.view == nil {
		rerr = h.growRing()
	} else {
		if node := trace.LatestAvailableFrom(in.gate, h.pid, in.tr.Tail(h.pid)); h.viewIdx < node.Idx() {
			h.advanceView(node)
		}
		_, _, rerr = h.chainBaseAndTruncate(h.viewIdx)
	}
	if rerr != nil {
		return fmt.Errorf("%w: %v (relief: %w)", ErrLogPressure, err, rerr)
	}
	if err := in.logs[h.pid].Room(1); err != nil {
		return fmt.Errorf("%w: %v after relief", ErrLogPressure, err)
	}
	return nil
}

// growRing replaces this process's log with one whose overflow ring is
// twice the size, holding every live record of the old one, re-appended
// in order. The durable root flip is the atomic cutover — a crash on
// either side of it recovers a complete log. The old region leaks (the
// pool is a bump allocator); that is the accepted cost of the rare
// exhaustion path.
func (h *Handle) growRing() error {
	in := h.in
	old := in.logs[h.pid]
	oldRing := old.RingWords()
	if oldRing == 0 {
		return errors.New("core: single-tier log has no ring to grow")
	}
	nl, err := plog.CreateInlineRing(in.pool, h.pid, old.Capacity(), old.MaxOps(), old.InlineOps(), 2*oldRing)
	if err != nil {
		return fmt.Errorf("core: allocating grown log: %w", err)
	}
	for _, rec := range old.Records() {
		switch rec.Kind {
		case plog.KindOps:
			_, err = nl.Append(rec.Ops, rec.ExecIdx)
		case plog.KindSnapshot:
			// An older image's full snapshot: the payload is a chain
			// base's (snapEncode envelope, then state), so it moves over
			// as one.
			_, err = nl.AppendChainBase(rec.State, rec.ExecIdx)
		case plog.KindDelta:
			// A chain resolves through its log's body regions; without a
			// view there is no state to re-seed it from.
			err = fmt.Errorf("core: chain record at index %d cannot move without a local view", rec.ExecIdx)
		}
		if err != nil {
			return fmt.Errorf("core: migrating record to grown log: %w", err)
		}
	}
	nl.AddSpills(old.Spills())
	in.pool.SetRoot(in.cfg.RootBase+rootLogBase+h.pid, uint64(nl.Base()))
	in.logs[h.pid] = nl
	in.ringGrows.Add(1)
	return nil
}
