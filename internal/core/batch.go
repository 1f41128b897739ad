package core

// Batched updates (DESIGN.md §3.10). The paper's cost model prices
// durability per operation — Update issues exactly one persistent fence
// — but a service front end beats per-op pricing by amortizing: stage N
// client requests through the order/linearize stages immediately, then
// persist all of them with ONE log append and ONE fence. The two-tier
// log already supports this shape (a record wider than the inline
// budget spills its tail to the overflow ring under the same fence);
// Config.LogMaxOps raises the per-record op bound so a whole batch plus
// the helping tail fits in one record.
//
// Semantics: Stage runs order + linearize (trace insert + SetAvailable)
// and computes the return value; Flush runs persist for everything
// staged since the last flush. Between a Stage and its covering Flush
// the operation is LINEARIZED BUT NOT YET DURABLE — readers (same
// process or others) can observe it, and a crash in that window erases
// it. That is the classic buffered durable linearizability trade: the
// lost suffix is contiguous and detectable (Report.WasLinearized on the
// op ids returns false), which is exactly the evidence a server's
// ack-on-linearize mode hands to clients. Ack-on-persist callers simply
// wait for Flush before responding.
//
// SINGLE-UPDATER REGIME REQUIRED. Making a staged node available before
// it is persisted is sound only while no OTHER handle runs updates: a
// concurrent updater's fuzzy-window walk (GetFuzzyOpsInto) stops at the
// first available node, so our available-but-unpersisted staged ops
// would terminate its helping scan, and its own fenced op would land in
// NVM above a hole. After a crash, recovery's gap rule would then
// strand that foreign durable op — a durable-linearizability violation
// (the same ordering the UnsafeLinearizeFirst ablation demonstrates).
// With one updating handle the volatile suffix is always a contiguous
// tail owned by the batch, so every fence still covers a gap-free
// prefix. Readers on other handles are fine (reads never persist).
// The server enforces the regime structurally: the batcher goroutine
// owns the only updating handle.

import (
	"errors"

	"repro/internal/spec"
	"repro/internal/trace"
)

// ErrBatchFull is returned by Batch.Stage when staging one more op
// could make the flush record — staged ops plus a worst-case helping
// tail of NProcs-1 — exceed the log's per-record bound. The caller
// must Flush and retry; sizing Config.LogMaxOps at NProcs + the
// intended maximum batch leaves this unreachable.
var ErrBatchFull = errors.New("core: batch full (flush before staging more, or raise Config.LogMaxOps)")

// Batch is a multi-update staging area bound to one Handle. It is not
// safe for concurrent use, and while any ops are staged (Pending > 0)
// its handle must not run Update — the batch owns the handle's
// volatile suffix until Flush persists it. See the single-updater
// requirement in the package comment above.
type Batch struct {
	h *Handle
	// nodes holds the staged, not-yet-persisted trace nodes in staging
	// (= linearization) order.
	nodes []*trace.Node
	// ops is the flush record scratch (newest-first, the log's order).
	ops []spec.Op
	// limit is the most ops Stage admits per flush interval:
	// log.MaxOps() minus headroom for the helping tail.
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

// Limit returns the most operations Stage admits between two flushes.
func (b *Batch) Limit() int { return b.limit }

// Pending returns the number of staged, not-yet-persisted operations.
func (b *Batch) Pending() int { return len(b.nodes) }

// Stage runs the order and linearize stages for (code, args) and
// computes its return value against the staged prefix — no log write,
// no fence. The op is immediately visible to readers but not durable
// until the next Flush; id is usable with Report.WasLinearized to
// detect post-crash loss. Issues zero persistent fences.
//
//onll:hotpath
func (b *Batch) Stage(code uint64, args ...uint64) (ret, id uint64, err error) {
	if len(b.nodes) >= b.limit {
		return 0, 0, ErrBatchFull
	}
	h := b.h
	node, err := h.order(code, args)
	if err != nil {
		return 0, 0, err
	}
	defer h.exit()

	// Linearize now, before any persist: under the single-updater
	// regime this is the buffered-durability window, not the unsound
	// UnsafeLinearizeFirst ordering — no concurrent updater can fence
	// an op above our volatile suffix.
	h.in.tr.SetAvailable(h.pid, node)
	ret = h.computeUpdate(node)

	b.nodes = append(b.nodes, node)
	h.in.gate.Step(h.pid, PointReturn)
	return ret, node.Op.ID, nil
}

// Flush persists every staged operation — plus any unavailable helping
// tail below the batch — with one log append and ONE persistent fence,
// then runs the update path's compaction cadence. A no-op when nothing
// is staged. On success the previously staged ops are durable. The
// pressure valve's base, should the append need it, covers the staged
// ops too: they just become durable a little early, which is always
// sound (the exposed suffix only shrinks).
func (b *Batch) Flush() error {
	if len(b.nodes) == 0 {
		return nil
	}
	h := b.h
	if qerr := h.in.quarErr(); qerr != nil {
		return qerr
	}
	h.enter()
	defer h.exit()
	first, last := b.nodes[0], b.nodes[len(b.nodes)-1]

	// The collection walk descends below the batch into the helping
	// tail; lower the reclamation floor so no concurrent compaction
	// frees those nodes under us (enter() published at most h.viewIdx,
	// which sits at the batch's last node after staging).
	if fi := first.Idx(); fi < h.floor.Load() {
		h.floor.Store(fi)
	}
	b.ops = collectBatchOps(b.ops[:0], h.in, h.pid, last, first.Idx())
	if err := h.persist(b.ops, last); err != nil {
		return err
	}
	err := h.cutCadence(last, len(b.nodes))
	b.nodes = b.nodes[:0]
	return err
}

// collectBatchOps assembles the flush record: every update node from
// last down through firstIdx (the whole batch, newest first — the
// log's record order), continuing below firstIdx through any
// unavailable nodes (the helping tail: ordered-but-unpersisted ops of
// crashed or delayed processes, same role as Update's fuzzy window).
// The walk stops at the first available node below the batch — under
// the single-updater regime that node was covered by a previous fence
// — or at a compaction base, whose snapshot stands for the prefix.
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
