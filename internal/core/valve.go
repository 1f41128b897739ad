package core

// The log-pressure valve (DESIGN.md §3.7). A run of deep fuzzy windows
// can fill a log before the compaction cadence truncates it. The order
// stage finds that out before it inserts, and a short log gets one
// relief there, before anything is ordered: a handle with a local view
// catches the view up to the latest available node, lays a chain base
// there and truncates its log behind it. Every record of the log is
// the handle's own and at or below that node, so the base covers all
// it truncates, and the truncate frees every line but the base's. A
// handle without a view has no state to cut, and a log without a free
// line has no room for the base: the op gets plog.ErrFull.

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/trace"
)

// relieve answers the order stage's room check error err (plog.ErrFull)
// with the relief; when the relief fails, or the log is still short
// after it, the op fails with ErrLogPressure. Only the owner appends to
// its log, so the room lasts until the handle's own commit uses it. The
// handle must be entered.
func (h *Handle) relieve(err error) error {
	if h.view == nil {
		return err
	}
	in := h.in
	if node := trace.LatestAvailableFrom(in.gate, h.pid, in.tr.Tail(h.pid)); h.viewIdx < node.Idx() {
		h.advanceView(node)
	}
	if _, _, rerr := h.chainBaseAndTruncate(h.viewIdx); errors.Is(rerr, plog.ErrFull) {
		return err // not one free line for the base record
	} else if rerr != nil {
		return fmt.Errorf("%w: %v (relief: %w)", ErrLogPressure, err, rerr)
	}
	in.valveFires.Add(1)
	in.logs[h.pid].AddSpills(1)
	if err := in.logs[h.pid].Room(1); err != nil {
		return fmt.Errorf("%w: %v after relief", ErrLogPressure, err)
	}
	return nil
}
