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
// Semantics: the batch runs Listing 3's pipeline with the persist and
// linearize stages shared. Stage runs order (trace insert) and computes
// the op's return value, which its position in the trace fixes; Flush
// runs persist for everything staged and then linearizes it. Until its
// covering Flush a staged node is an ordinary pending operation: it is
// unavailable, so readers do not observe it and a crash may erase it
// (detectably: Report.WasLinearized on its id returns false), and any
// concurrent updater's fuzzy-window walk collects it and persists it
// under its own fence before making its own node available — exactly
// Proposition 5.2's helping. Other handles may therefore update
// concurrently with a staged batch.
//
// The batch holds its handle entered from the first Stage to the end of
// the Flush that covers it. The handle's published floor therefore
// protects the staged nodes and the helping tail below them from a
// foreign compaction cut, and Read or Update on the handle panic while
// ops are staged: its view already reflects operations that are not yet
// linearized.
//
// A log record is contiguous (ops[k] has index execIdx-k), so the flush
// record holds every node from the batch's first to its last, foreign
// ones included, plus the helping tail below the first: at most NProcs-1
// pending ops of the other processes. Stage bounds that span, not the
// count of staged ops, by the log's per-record bound.

import (
	"errors"

	"repro/internal/spec"
	"repro/internal/trace"
)

// ErrBatchFull is returned by Batch.Stage when staging one more op
// could make the flush record — every node from the batch's first to
// the new one, plus a worst-case helping tail of NProcs-1 — exceed the
// log's per-record bound. The op is not staged; the caller must Flush
// and retry. Sizing Config.LogMaxOps at NProcs + the intended maximum
// batch makes it unreachable while no other handle updates.
var ErrBatchFull = errors.New("core: batch full (flush before staging more, or raise Config.LogMaxOps)")

// Batch is a multi-update staging area bound to one Handle. It is not
// safe for concurrent use, and while any ops are staged (Pending > 0)
// it owns the handle: Read and Update on it panic.
type Batch struct {
	h *Handle
	// nodes holds the staged, not-yet-persisted trace nodes in staging
	// (= linearization) order.
	nodes []*trace.Node
	// ops is the flush record scratch (newest-first, the log's order).
	ops []spec.Op
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

// Pending returns the number of staged, not-yet-persisted operations.
func (b *Batch) Pending() int { return len(b.nodes) }

// Stage runs the order stage for (code, args) and computes its return
// value on the ordered prefix — no log write, no fence, no linearize.
// The op is neither visible to readers nor durable until the Flush that
// covers it (or a concurrent updater's helping); id is usable with
// Report.WasLinearized to detect post-crash loss. Issues zero
// persistent fences, except when other handles' inserts race the span
// check: the ops staged so far are then flushed first.
//
//onll:hotpath
func (b *Batch) Stage(code uint64, args ...uint64) (ret, id uint64, err error) {
	h := b.h
	var node *trace.Node
	if len(b.nodes) == 0 {
		if node, err = h.order(code, args); err != nil {
			return 0, 0, err
		}
	} else {
		if b.span(h.in.tr.Tail(h.pid)) >= b.limit {
			return 0, 0, ErrBatchFull
		}
		node = h.insert(code, args)
		if b.span(node) > b.limit {
			// Foreign inserts landed between the check and ours: fence
			// the ops staged so far, and node starts the next record.
			if err = b.persist(); err != nil {
				return 0, node.Op.ID, err
			}
		}
	}
	ret = h.computeUpdate(node)
	b.nodes = append(b.nodes, node)
	h.in.gate.Step(h.pid, PointReturn)
	return ret, node.Op.ID, nil
}

// span is the number of trace nodes from the batch's first staged node
// through n.
func (b *Batch) span(n *trace.Node) int { return int(n.Idx()-b.nodes[0].Idx()) + 1 }

// Flush persists every staged operation — plus any unavailable helping
// tail below the batch — with one log append and ONE persistent fence,
// linearizes them, runs the update path's compaction cadence, and
// releases the handle. A no-op when nothing is staged. If the append
// fails, the ops stay staged and the handle stays held.
func (b *Batch) Flush() error {
	if len(b.nodes) == 0 {
		return nil
	}
	err := b.persist()
	if len(b.nodes) == 0 {
		b.h.exit()
	}
	return err
}

// persist is Flush without the release. Only the last staged node is
// set available: its flag linearizes the whole prefix below it
// (Section 5.2), so one epoch bump covers the batch, and the earlier
// staged nodes stay unflagged — later fuzzy walks stop at the flagged
// node above them. Should the append need the pressure valve, its base
// lies at the handle's view, which already holds the staged ops: the
// base makes durable what the record would have.
func (b *Batch) persist() error {
	h := b.h
	first, last := b.nodes[0], b.nodes[len(b.nodes)-1]
	b.ops = collectBatchOps(b.ops[:0], h.in, h.pid, last, first.Idx())
	if err := h.persist(b.ops, last); err != nil {
		return err
	}
	h.in.tr.SetAvailable(h.pid, last)
	n := len(b.nodes)
	b.nodes = b.nodes[:0]
	return h.cutCadence(last, n)
}

// collectBatchOps assembles the flush record: every update node from
// last down through firstIdx (the whole batch with any foreign nodes
// ordered between, newest first — the log's record order), continuing
// below firstIdx through any unavailable nodes (the helping tail:
// ordered-but-unpersisted ops of crashed or delayed processes, same role
// as Update's fuzzy window). The walk stops at the first available node
// below the batch, whose owner's fence covered the prefix below it, or at
// a compaction base, whose snapshot stands for the prefix.
func collectBatchOps(dst []spec.Op, in *Instance, pid int, last *trace.Node, firstIdx uint64) []spec.Op {
	for cur := last; cur != nil; cur = cur.Next() {
		in.gate.Step(pid, "trace.scan")
		if cur.Kind != trace.KindUpdate {
			break
		}
		if cur.Idx() < firstIdx && cur.Available() {
			break
		}
		dst = append(dst, cur.Op)
	}
	return dst
}
