package core

// Delta-chain compaction (DESIGN.md §3.8), the one cut algorithm. A
// full snapshot per cut would write O(state) words every time, so every
// cut — the cadence's, the pressure valve's, the seeds of a grown ring
// or a recreated object — appends a plog.KindDelta record: a chain BASE
// (a full snapshot) once, then per-cut DELTAS covering only the
// operations since the previous cut, each O(churn). A delta cut still
// truncates the log fully — the chain stays reachable through the
// records' body back-references (internal/plog/chain.go); the trace,
// however, is only cut on base cuts, so the volatile node window grows
// to at most MaxDeltaChain cadences before a collapse reclaims it.
// MaxDeltaChain 1 is the paper's full-snapshot shape. Recovery still
// reads the plog.KindSnapshot records older images hold.
//
// Delta payload layout (the caller words inside plog's chain frame):
//
//	base:  snapEncode(seqs) ++ state          — same as a KindSnapshot
//	delta: [format] ++ snapEncode(seqs) ++ body
//
// where format selects how recovery folds body into the restored base:
// deltaFmtOps replays verbatim operations (the universal fallback,
// spec.OpWords per op), deltaFmtDiff hands the words to the state's
// spec.DeltaApplier (the object-specific compact encoding, emitted by
// its spec.DeltaEmitter). The per-cut seqs vector keeps detectability
// exact at every link: recovery folds the vectors of every link it
// applies, so CoveredSeq reflects the chain head, not just its base.
//
// A cut collapses the chain back to a fresh base when it has grown to
// MaxDeltaChain links, when the accumulated delta volume rivals the
// state size (recovery fold cost has caught up with a full snapshot),
// when a single delta would be no smaller than the state, or when the
// trace between the chain head and the cut is no longer reachable
// (another process cut the trace with its own base — the foreign-base
// cascade).

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Delta payload formats (the first caller word of a non-base link).
const (
	deltaFmtOps  = 1 // body = verbatim ops, spec.OpWords each (universal)
	deltaFmtDiff = 2 // body = spec.DeltaEmitter words (object-specific)
)

// errDeltaOversize is the internal signal that an emitted delta would
// be at least as large as a full snapshot, so the caller should collapse
// the chain instead of appending it.
var errDeltaOversize = errors.New("core: delta payload not smaller than a full snapshot")

// cutEvery returns the handle's compaction cadence in updates: the
// configured CompactEvery when set; otherwise, under DeltaSnapshots, a
// size-aware default — cut roughly when the accumulated churn could
// rival the state itself (SizeHint words at OpWords per logged update),
// clamped to [64, min(1024, LogCapacity/4)] so tiny states still cut
// often enough to bound the log and huge states do not defer cuts past
// the slot ring. 0 disables cadence compaction.
func (h *Handle) cutEvery() int {
	if ce := h.in.cfg.CompactEvery; ce > 0 {
		return ce
	}
	if !h.in.cfg.DeltaSnapshots || h.view == nil {
		return 0
	}
	ce := spec.SizeHint(h.view) / spec.OpWords
	hi := h.in.cfg.LogCapacity / 4
	if hi > 1024 {
		hi = 1024
	}
	if hi < 64 {
		hi = 64
	}
	if ce < 64 {
		ce = 64
	}
	if ce > hi {
		ce = hi
	}
	return ce
}

// shouldCollapse reports whether the next cut must be a (fresh or
// collapsing) base rather than a delta.
func (h *Handle) shouldCollapse(log *plog.Log) bool {
	n := log.ChainLen()
	if n == 0 {
		return true // no chain to extend
	}
	if n >= h.in.cfg.MaxDeltaChain {
		return true // recovery fold depth capped
	}
	if hint := spec.SizeHint(h.view); hint > 0 && log.ChainDeltaWords() >= hint {
		return true // accumulated deltas rival the state: fold no longer pays
	}
	return false
}

// fullEquivWords estimates what a full snapshot cut would write right
// now: the snapEncode envelope plus the state's size hint. 0 when the
// state has no Sizer (callers then fall back to actual payload sizes).
func (h *Handle) fullEquivWords() int {
	if hint := spec.SizeHint(h.view); hint > 0 {
		return 1 + len(h.viewSeqs) + hint
	}
	return 0
}

// tryDeltaCut attempts the delta leg of a cadence cut at node (the
// update that triggered it; the view is exactly at node.Idx()). done
// reports that the cut happened (or failed terminally); done false
// means the caller should collapse to a base instead. foreign reports
// that the collapse was forced by another handle's trace sentinel
// inside the window — the caller must then skip its own trace cut, or
// the handles ping-pong induced bases forever and no delta ever lands.
func (h *Handle) tryDeltaCut(node *trace.Node) (done, foreign bool, err error) {
	log := h.in.logs[h.pid]
	if h.shouldCollapse(log) {
		return false, false, nil
	}
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, log.ChainHead())
	h.nodeBuf = nodes
	if base != nil {
		// Foreign-base cascade: the window since the chain head is no
		// longer walkable. Collapse.
		return false, true, nil
	}
	ops := h.deltaOps[:0]
	for _, n := range nodes {
		ops = append(ops, n.Op)
	}
	h.deltaOps = ops
	err = h.deltaCutAt(log, node.Idx(), ops)
	if errors.Is(err, errDeltaOversize) {
		return false, false, nil
	}
	return true, false, err
}

// deltaCutAt appends one delta covering ops — the full window
// (log.ChainHead(), idx], with the view exactly at idx — and truncates
// the log behind it. Object-specific diff when the state emits one,
// verbatim op replay otherwise. Two persistent fences (append +
// truncate), the same as a base cut.
func (h *Handle) deltaCutAt(log *plog.Log, idx uint64, ops []spec.Op) error {
	payload := snapEncode(append(h.deltaBuf[:0], deltaFmtDiff), h.viewSeqs)
	hdr := len(payload)
	emitted := false
	if em, ok := h.view.(spec.DeltaEmitter); ok {
		if _, ok := h.view.(spec.DeltaApplier); ok {
			payload, emitted = em.EmitDelta(payload, ops)
		}
	}
	if !emitted {
		payload = payload[:hdr]
		payload[0] = deltaFmtOps
		for _, op := range ops {
			payload = op.Encode(payload)
		}
	}
	h.deltaBuf = payload
	if fe := h.fullEquivWords(); fe > 0 && len(payload) >= fe {
		return errDeltaOversize
	}
	seq, err := log.AppendDelta(payload, idx)
	if err != nil {
		return err
	}
	if seq > 1 {
		if err := log.Truncate(seq - 1); err != nil {
			return err
		}
	}
	in := h.in
	in.cmpDeltas.Add(1)
	in.cmpSnapWords.Add(uint64(len(payload)))
	if fe := h.fullEquivWords(); fe > 0 {
		in.cmpFullWords.Add(uint64(fe))
	} else {
		in.cmpFullWords.Add(uint64(len(payload)))
	}
	return nil
}

// chainBaseAndTruncate starts (or collapses to) a fresh chain base of
// the local view at idx and truncates the log behind it — the log half
// of the cadence's and the pressure valve's base cuts. It returns the
// base body (encodeBase) and its slot, for callers that also cut the
// trace: the base node's Snap and Seqs are subslices of the body, and
// the caller records the splice in h.bases.idx[slot].
func (h *Handle) chainBaseAndTruncate(idx uint64) (slot int, body []uint64, err error) {
	slot, body = h.encodeBase()
	log := h.in.logs[h.pid]
	if log.ChainLen() > 0 {
		h.in.cmpCollapses.Add(1)
	}
	seq, err := log.AppendChainBase(body, idx)
	if err != nil {
		return 0, nil, err
	}
	if seq > 1 {
		if err := log.Truncate(seq - 1); err != nil {
			return 0, nil, err
		}
	}
	in := h.in
	in.cmpBases.Add(1)
	in.cmpSnapWords.Add(uint64(len(body)))
	in.cmpFullWords.Add(uint64(len(body)))
	return slot, body, nil
}

// baseBufs are the two chain-base bodies a handle's base cuts alternate
// between. A cut encodes the snapEncode envelope and the state once,
// into one of them; plog copies it to NVM, and a spliced base node's
// Snap and Seqs are subslices of it. idx[i] is the index of the trace
// base words[i] backs, 0 while no base node refers to it.
type baseBufs struct {
	words [2][]uint64
	idx   [2]uint64
}

// baseSlot picks the body the next base overwrites: one no base node
// refers to, else the older of the two. The older body backs a base
// below the newest one this handle spliced, so no walk that starts from
// now on reaches it; it is reused only when no walk still in flight can
// either — its index below walkLimit, node reuse's quiescence rule.
// Otherwise a walker may yet restore from it: the slot lets it go to the
// garbage collector and starts over with a fresh buffer.
func (h *Handle) baseSlot() int {
	if h.bases == nil {
		h.bases = &baseBufs{}
	}
	b := h.bases
	i := 0
	if b.idx[1] < b.idx[0] {
		i = 1
	}
	if b.idx[i] != 0 {
		if b.idx[i] >= h.walkLimit() {
			b.words[i] = nil
		}
		b.idx[i] = 0
	}
	return i
}

// encodeBase writes a chain-base body of the local view — the
// snapEncode envelope, then the state — into the body baseSlot picks
// and returns the slot and the body. A buffer is sized once from the
// state's SizeHint, so a base never grows it by doubling, and a state of
// unchanged size re-encodes into it without allocating.
func (h *Handle) encodeBase() (int, []uint64) {
	i := h.baseSlot()
	buf := h.bases.words[i][:0]
	if need := 1 + len(h.viewSeqs) + spec.SizeHint(h.view) + 2; cap(buf) < need {
		buf = make([]uint64, 0, need)
	}
	buf = h.view.AppendSnapshot(snapEncode(buf, h.viewSeqs))
	h.bases.words[i] = buf
	return i, buf
}

// baseCand is one compaction-record candidate recovery may restart
// from: the head of a delta chain or an older image's full snapshot,
// with the log that owns it (chains resolve through their log's pool).
type baseCand struct {
	pid int
	log *plog.Log
	rec plog.Record
}

// foldBaseCandidate turns a candidate into (seqs, words, state). Every
// candidate's base payload — an older image's full snapshot, or a
// chain's base — is restored into a fresh state, so a payload the spec
// rejects fails the fold whichever record carries it; a chain then
// folds every delta into that state in order, merging the per-link
// sequence vectors. words encodes the state: the restored payload
// itself when no delta was applied, the folded state's Snapshot
// otherwise. Every word is untrusted input — any malformed link fails
// the fold rather than restoring a half-applied state.
func foldBaseCandidate(sp spec.Spec, l *plog.Log, rec plog.Record) (seqs, words []uint64, st spec.State, err error) {
	payload := rec.State
	var deltas []plog.ChainElem
	if rec.Kind != plog.KindSnapshot {
		elems, err := l.ResolveChain(rec)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(elems) == 0 || !elems[0].Base {
			return nil, nil, nil, errors.New("core: resolved chain is not base-anchored")
		}
		payload, deltas = elems[0].Payload, elems[1:]
	}
	baseSeqs, words, err := snapDecode(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	st = sp.New()
	if err := st.Restore(words); err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring recovery base: %w", err)
	}
	if len(deltas) == 0 {
		return baseSeqs, words, st, nil
	}
	seqs = append([]uint64(nil), baseSeqs...)
	for _, e := range deltas {
		if len(e.Payload) < 2 {
			return nil, nil, nil, fmt.Errorf("core: delta payload of %d words", len(e.Payload))
		}
		dseqs, body, derr := snapDecode(e.Payload[1:])
		if derr != nil {
			return nil, nil, nil, derr
		}
		mergeSeqs(seqs, dseqs)
		switch e.Payload[0] {
		case deltaFmtOps:
			if len(body)%spec.OpWords != 0 {
				return nil, nil, nil, fmt.Errorf("core: op-replay delta of %d words", len(body))
			}
			for i := 0; i < len(body); i += spec.OpWords {
				st.Apply(spec.DecodeOp(body[i:]))
			}
		case deltaFmtDiff:
			ap, ok := st.(spec.DeltaApplier)
			if !ok {
				return nil, nil, nil, errors.New("core: diff delta for a spec without DeltaApplier")
			}
			if aerr := ap.ApplyDelta(body); aerr != nil {
				return nil, nil, nil, aerr
			}
		default:
			return nil, nil, nil, fmt.Errorf("core: unknown delta format %d", e.Payload[0])
		}
	}
	return seqs, st.Snapshot(), st, nil
}

// CompactionStats counts compaction cuts and their write volume.
// FullEquivWords estimates what full-snapshot compaction would have
// written for the same cuts (via spec.Sizer; actual payload size when
// the state has no Sizer), so SnapshotWords/FullEquivWords is the
// write-volume ratio delta chains buy.
type CompactionStats struct {
	// Bases counts chain-base cuts (fresh bases and collapses alike,
	// the pressure valve's included); Collapses counts the subset that
	// superseded a live chain.
	Bases, Collapses uint64
	// Deltas counts delta cuts.
	Deltas uint64
	// SnapshotWords is the payload words actually appended by all cuts;
	// FullEquivWords the full-snapshot-equivalent estimate.
	SnapshotWords, FullEquivWords uint64
}

// CompactionStats returns the instance's cumulative compaction
// counters (all zero unless the instance compacts: CompactEvery > 0 or
// DeltaSnapshots, or the pressure valve fired). Safe to call mid-run.
func (in *Instance) CompactionStats() CompactionStats {
	return CompactionStats{
		Bases:          in.cmpBases.Load(),
		Collapses:      in.cmpCollapses.Load(),
		Deltas:         in.cmpDeltas.Load(),
		SnapshotWords:  in.cmpSnapWords.Load(),
		FullEquivWords: in.cmpFullWords.Load(),
	}
}
