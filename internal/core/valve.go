package core

// The log-pressure valve (DESIGN.md §3.7). The overflow ring is sized
// at a fraction of the worst case, so a run of deep fuzzy windows can
// exhaust it. An append the ring refuses gets one relief and one retry:
//
//   - A handle with a local view lays a chain base at the view and
//     truncates its log behind it. The commit's caller has already
//     computed the in-flight ops' return values, so the view holds
//     them: it is at the record's newest node, above every record of
//     the log, and the base covers all it truncates and makes durable
//     what the record would have. Chain bodies live outside the ring,
//     so the truncate frees every ring chunk and the retry cannot be
//     refused.
//   - A handle without a view has no state to cut: it replaces its log
//     with one whose ring is twice the size.
//
// When the relief fails, or the retry is refused anyway, the update
// fails with ErrLogPressure.

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/spec"
	"repro/internal/trace"
)

// persistWithValve re-drives a refused persist-stage append through the
// relief. aerr is the append's error; any error other than ErrOvfFull
// passes through untouched. On success the record is durably appended,
// having cost the relief's own fences on top of the append's one.
func (h *Handle) persistWithValve(ops []spec.Op, node *trace.Node, aerr error) error {
	if !errors.Is(aerr, plog.ErrOvfFull) {
		return aerr
	}
	in := h.in
	in.valveFires.Add(1)
	if err := h.relieve(); err != nil {
		return fmt.Errorf("%w: %v (relief: %w)", ErrLogPressure, aerr, err)
	}
	// The log pointer may have changed (growRing swaps it).
	_, err := in.logs[h.pid].Append(ops, node.Idx())
	if errors.Is(err, plog.ErrOvfFull) {
		return fmt.Errorf("%w: %v after relief", ErrLogPressure, err)
	}
	return err
}

// relieve frees the ring for the retry of a refused append.
func (h *Handle) relieve() error {
	if h.view == nil {
		return h.growRing()
	}
	_, _, err := h.chainBaseAndTruncate(h.viewIdx)
	return err
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
	in.pool.SetRoot(in.cfg.RootBase+rootLogBase+h.pid, uint64(nl.Base()))
	in.logs[h.pid] = nl
	in.ringGrows.Add(1)
	return nil
}
