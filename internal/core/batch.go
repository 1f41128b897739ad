package core

// Batched updates (DESIGN.md §3.10). The paper's cost model prices
// durability per operation — Update issues exactly one persistent fence
// — but a service front end beats per-op pricing by amortizing: order N
// client requests as they arrive, then persist all of them with ONE log
// append and ONE fence, then linearize them. The two-tier log already
// supports this shape (a record wider than the inline budget spills its
// tail to the overflow ring under the same fence); Config.LogMaxOps
// raises the per-record op bound so a whole batch plus the helping tail
// fits in one record.
//
// Semantics: a batch is Listing 3's pipeline with its tail shared.
// Listing 3's insert is Stage's order stage, and its return value is
// computed there on the ordered prefix, which the node's position in the
// trace fixes; getFuzzyOps, the log append with its one fence and the
// available-flag store are commit's (update.go), which Flush runs once
// from the last staged node. Only that node's flag is set: it linearizes
// the whole prefix below it (Section 5.2). Update is the batch of one:
// order, compute, commit. Until its covering Flush a staged
// node is an ordinary pending operation: it is unavailable, so readers
// do not observe it and a crash may erase it (detectably:
// Report.WasLinearized on its id returns false), and any concurrent
// updater's fuzzy walk collects it and persists it under its own fence
// before making its own node available — exactly Proposition 5.2's
// helping. Other handles may therefore update concurrently with a
// staged batch.
//
// The batch holds its handle entered from the first Stage to the end of
// the Flush that covers it, as Update holds it from order to commit.
// The handle's published floor therefore protects the staged nodes and
// the helping tail below them from a foreign compaction cut, and Read or
// Update on the handle panic while ops are staged: its view already
// reflects operations that are not yet linearized.
//
// The flush record is the fuzzy window from the last staged node: every
// unavailable node down to the first available one, foreign pending
// nodes and the helping tail included. A staged node below an available
// foreign node is not in it: that node's owner persisted it before
// setting its flag. The window is at most every node from the batch's
// first to its last plus NProcs-1 pending ops of the other processes, so
// Stage bounds that span, not the count of staged ops, by the log's
// per-record bound.
//
// Stage orders an op only when its record fits the handle's log: the
// first Stage of a batch runs Update's room check and valve (order), and
// a later one checks, once per record, room for the record a span race
// would split off. Stage fails only before it inserts, and Flush only
// in the cut after its fence.

import (
	"errors"

	"repro/internal/trace"
)

// ErrBatchFull is returned by Batch.Stage when staging one more op
// could make the flush record — every node from the batch's first to
// the new one, plus a worst-case helping tail of NProcs-1 — exceed the
// log's per-record bound, or the log lacks room for a record a span
// race would split off. The op is not staged; the caller must Flush and
// retry. Sizing Config.LogMaxOps at NProcs + the intended maximum batch
// makes the first cause unreachable while no other handle updates.
var ErrBatchFull = errors.New("core: batch full (flush before staging more, or raise Config.LogMaxOps)")

// Batch is a multi-update staging area bound to one Handle. It is not
// safe for concurrent use, and while any ops are staged (Pending > 0)
// it owns the handle: Read and Update on it panic.
type Batch struct {
	h *Handle
	// first and last are the staged, not-yet-persisted trace nodes at
	// the ends of the batch's record; n counts the ops staged since the
	// last Flush; spare: the log has room for a split-off record too.
	first, last *trace.Node
	n           int
	spare       bool
	// limit is the most trace nodes a batch may span: log.MaxOps()
	// minus headroom for the helping tail.
	limit int
}

// NewBatch returns a batch staging area for the handle. One batch per
// handle at a time; the same batch is reused across flushes.
func (h *Handle) NewBatch() *Batch {
	limit := h.in.logs[h.pid].MaxOps() - (h.in.cfg.NProcs - 1)
	if limit < 1 {
		limit = 1
	}
	return &Batch{h: h, limit: limit}
}

// Limit returns the most operations Stage admits between two flushes
// (fewer when other handles' updates interleave with the batch).
func (b *Batch) Limit() int { return b.limit }

// Pending returns the number of operations staged since the last Flush.
func (b *Batch) Pending() int { return b.n }

// Stage runs the order stage for (code, args) and computes its return
// value on the ordered prefix — no log write, no fence, no linearize.
// The op is neither visible to readers nor durable until the Flush that
// covers it (or a concurrent updater's helping); id is usable with
// Report.WasLinearized to detect post-crash loss. Issues zero
// persistent fences, except when other handles' inserts race the span
// check: the ops staged so far are then persisted and linearized first,
// and the new op starts the next record. An error means nothing was
// ordered: the first Stage of a batch fails as Update's order stage
// does, a later one only with ErrBatchFull (the staged ops stay staged).
//
//onll:hotpath
func (b *Batch) Stage(code uint64, args ...uint64) (ret, id uint64, err error) {
	h := b.h
	var node *trace.Node
	if b.n == 0 {
		if node, err = h.order(code, args); err != nil {
			return 0, 0, err
		}
		b.first = node
	} else {
		if b.span(h.in.tr.Tail(h.pid)) >= b.limit || !b.spare && h.in.logs[h.pid].Room(2) != nil {
			return 0, 0, ErrBatchFull
		}
		b.spare = true
		node = h.insert(code, args)
		if b.span(node) > b.limit {
			// Foreign inserts landed between the check and ours: commit
			// the ops staged so far into the spare room, and node starts
			// the next record. The cadence counts them at the Flush.
			h.commit(b.last)
			b.first, b.spare = node, false
		}
	}
	ret = h.computeUpdate(node)
	b.last = node
	b.n++
	h.in.gate.Step(h.pid, PointReturn)
	return ret, node.Op.ID, nil
}

// span is the number of trace nodes from the batch's first staged node
// through n.
func (b *Batch) span(n *trace.Node) int { return int(n.Idx()-b.first.Idx()) + 1 }

// Flush commits every staged operation — plus any unavailable helping
// tail below the batch — with one log append and ONE persistent fence,
// linearizes them, runs the update path's compaction cadence, and
// releases the handle. A no-op when nothing is staged. Its error can
// only be the cut's, after the staged ops are durable and linearized.
func (b *Batch) Flush() error {
	if b.n == 0 {
		return nil
	}
	h := b.h
	h.commit(b.last)
	err := h.cutCadence(b.last, b.n)
	b.n, b.spare = 0, false
	h.exit()
	return err
}
