package core

// Log-pressure escalation (PR 6). The overflow ring is deliberately
// sized at a fraction of the worst case, so a sustained run of deep
// fuzzy windows can exhaust it. The old valve compacted once and
// retried once; this ladder escalates through increasingly expensive
// relief until the append lands or every rung failed:
//
//  1. compact    — snapshot the local view where it stands and truncate
//                  this log behind it, freeing the truncated records'
//                  overflow chunks (the original valve).
//  2. catch-up   — advance the local view to the latest available node
//                  first, then compact: the deeper snapshot covers more
//                  records and frees more chunks. Sound for the same
//                  reason compactForSpace is: every operation at or
//                  below the new view index is available, hence
//                  persisted and fenced by its own process (this
//                  handle's in-flight op is not available yet, so it is
//                  never folded in).
//  3. grow       — replace the log with one whose ring is twice the
//                  size (adaptive sizing: the observed spill rate pays
//                  for the memory, the formula floor is never shrunk
//                  below).
//
// Sustained pressure skips straight to growth: when the spill counter
// shows the ring filled again shortly after the last relief, compaction
// is evidently a palliative and the ladder reorders itself.

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/spec"
	"repro/internal/trace"
)

// growSpillThreshold is the number of refused appends since the last
// ring growth beyond which the valve stops re-trying compaction first
// and escalates straight to growth.
const growSpillThreshold = 8

// persistWithValve re-drives the persist-stage append through the
// escalation ladder. aerr is the append's original error; any error
// other than ErrOvfFull passes through untouched. On success the
// record is durably appended (the fence count is the same as a
// first-try success plus the relief's own snapshot/truncate fences,
// which only spend on the exhaustion path).
func (h *Handle) persistWithValve(fuzzy []spec.Op, node *trace.Node, aerr error) error {
	if !errors.Is(aerr, plog.ErrOvfFull) {
		return aerr
	}
	in := h.in
	in.valveFires.Add(1)
	idx := node.Idx()
	type rung struct {
		name string
		run  func() error
	}
	ladder := []rung{
		{"compact", h.compactForSpace},
		{"catch-up+compact", func() error { h.catchUpView(); return h.compactForSpace() }},
		{"grow-ring", h.growRing},
	}
	if in.logs[h.pid].Spills()-h.spillsAtGrow > growSpillThreshold {
		// Sustained pressure: compaction has been relieving the ring
		// only briefly. Go straight to growth, keeping one compaction
		// rung as the pre-growth cleanup.
		ladder = []rung{
			{"compact", h.compactForSpace},
			{"grow-ring", h.growRing},
		}
	}
	var failures []error
	for _, r := range ladder {
		if rerr := r.run(); rerr != nil {
			failures = append(failures, fmt.Errorf("%s: %w", r.name, rerr))
			continue
		}
		// The log pointer may have changed under us (growRing swaps it).
		if _, aerr = in.logs[h.pid].Append(fuzzy, idx); aerr == nil {
			return nil
		}
		if !errors.Is(aerr, plog.ErrOvfFull) {
			return aerr
		}
		in.valveFires.Add(1)
	}
	return fmt.Errorf("%w: %v (ladder: %v)", ErrLogPressure, aerr, errors.Join(failures...))
}

// catchUpView advances the handle's local view to the latest available
// node, deepening the snapshot the next compactForSpace will take.
func (h *Handle) catchUpView() {
	if h.view == nil {
		return
	}
	n := trace.LatestAvailableFrom(h.in.gate, h.pid, h.in.tr.Tail(h.pid))
	if n != nil && n.Idx() > h.viewIdx {
		h.advanceView(n)
	}
}

// growRing replaces this process's log with one whose overflow ring is
// twice the size, seeded so that recovery from the new log alone sees
// everything the old one covered: first a chain base of the local view
// (when one exists), then every live record beyond it, re-appended in
// order. The durable root flip is the atomic cutover — a crash on
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
	seedIdx := uint64(0)
	if h.view != nil && h.viewIdx > 0 {
		_, body := h.encodeBase()
		if _, err := nl.AppendChainBase(body, h.viewIdx); err != nil {
			return fmt.Errorf("core: seeding grown log: %w", err)
		}
		seedIdx = h.viewIdx
	}
	for _, rec := range old.Records() {
		if rec.ExecIdx <= seedIdx {
			continue // covered by (or identical to) the seed base
		}
		switch rec.Kind {
		case plog.KindOps:
			_, err = nl.Append(rec.Ops, rec.ExecIdx)
		case plog.KindSnapshot:
			// An older image's full snapshot: the payload is a chain
			// base's (snapEncode envelope, then state), so it moves over
			// as one.
			_, err = nl.AppendChainBase(rec.State, rec.ExecIdx)
		case plog.KindDelta:
			// A chain record's index never exceeds its owner's view
			// index (cuts happen at the view), so the seed base above
			// always covers it.
			err = fmt.Errorf("core: delta chain record at index %d above grow seed %d", rec.ExecIdx, seedIdx)
		}
		if err != nil {
			return fmt.Errorf("core: migrating record to grown log: %w", err)
		}
	}
	in.pool.SetRoot(in.cfg.RootBase+rootLogBase+h.pid, uint64(nl.Base()))
	in.logs[h.pid] = nl
	h.spillsAtGrow = 0
	in.ringGrows.Add(1)
	return nil
}
