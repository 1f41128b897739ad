package core

// The read fast path (Config.ReadFastPath, DESIGN.md §3.5–3.6, striping
// §3.9) has two halves. The epoch check lives in Read/advanceView in
// core.go: the trace bumps a publication epoch on every linearize
// stage, and a read whose handle has already validated its view against
// the current epoch skips the trace walk entirely. This file holds the
// second half, the shared latest-view slots: per-instance publications
// of (state, execution index, covered-sequence vector) that cold or
// lagging handles copy instead of replaying a long trace suffix node by
// node.
//
// Since PR 8 the slot is STRIPED: an instance carries a small array of
// independent slots (Config.SlotStripes; auto-sized from GOMAXPROCS by
// default) so the hot atomics are not one shared CAS line that every
// publisher in the process serializes on. The protocol per stripe is
// unchanged from the single-slot design:
//
//   - each slot is guarded seqlock-style by one version counter: even
//     means free, odd means a publisher or adopter is inside. Both
//     sides acquire it with a single CAS and NEVER wait — on contention
//     they fall back to the ordinary suffix walk, which is always
//     correct. Adopters hold the (odd) version for the duration of
//     their copy, so a copy can never race a publisher's overwrite;
//   - adopters copy into a handle-private scratch state and swap it
//     with the view only after a successful copy, so a failed
//     acquisition never leaves a torn view behind.
//
// A slot has exactly two roles: publishers copy a view IN, adopters
// copy it OUT. Nobody reads through a slot and nobody advances its
// state in place — a read is an epoch hit on the handle's own view or a
// walk (DESIGN.md §3.6 records why there is no third, slot-served
// route: its measured traffic was zero).
//
// Stripe selection is asymmetric by design. PUBLISHERS
// (publishFromUpdate, tryPublish, compact) always write their OWN
// stripe, picked by pid hash: a hot updater's slot CAS and frontier
// stores then contend only with the handles hashed onto the same
// stripe, not with every handle in the instance. ADOPTERS (tryAdopt)
// scan ALL stripes for the freshest one (highest frontier mirror),
// because a laggard wants the best publication anywhere, not whatever
// its own stripe happens to hold. The scan costs one plain atomic load
// per stripe on lines that are read-mostly from this side, so it does
// not reintroduce the shared-line bouncing the striping removes.
//
// Within a pubView the hot atomics — ver and frontier — are each padded
// to their own cache line (PR 8's false-sharing fix, pinned by
// TestPubViewCacheLineLayout): frontier is loaded by every updater's
// publication damper and every adopter's scan, ver is CASed by whoever
// holds the slot, and on one line each acquisition would invalidate the
// line every damper check is about to load.
//
// The slots are fed from three sides: updaters that just caught their
// view up in computeUpdate (damped by publishFromUpdate, so the slots
// track the insert frontier under churn), readers that paid for a
// long catch-up walk, and compaction (which is exactly caught up at
// the cut). Adoption is gated by the cost model in adoptpolicy.go.
//
// Compaction safety: a slot holds a value copy of a state plus an
// execution index — never a node pointer — so a compaction cut (or the
// compactForSpace pressure valve, which truncates logs without cutting
// the trace) can never leave it dangling into recycled nodes. A
// publication older than a later cut's base is merely useless, not
// unsafe: an adopter that takes it walks the remaining suffix, meets
// the (younger, available) base first, and restores from the base,
// discarding the adopted prefix — TestAdoptionAcrossCompactionCut pins
// this interleaving deterministically. compact republishes at the cut
// index anyway, so the stale window is one slot write wide.

import (
	"runtime"
	"time"

	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/spec"
	"repro/internal/trace"
)

// epochNever marks a handle whose view has not been validated against
// any trace epoch (fresh or freshly recovered); the first read always
// takes the walk. Publication epochs count up from zero and cannot
// reach it.
const epochNever = ^uint64(0)

// publishMinLag is the minimum number of nodes an advanceView must
// have replayed before it publishes its view from the read side: a
// handle that just paid for a long catch-up shares the result, handles
// ticking along one node at a time never pay the publication copy.
// (Updaters publish through the publishFromUpdate damper instead.)
const publishMinLag = 32

// maxSlotStripes caps the automatic stripe count: past a handful of
// stripes the adopter scan cost grows while the contention win
// flattens (stripes beyond the core count can never be hot in
// parallel).
const maxSlotStripes = 8

// slotPadWords pads a uint64 field to a full pmem-modelled cache line
// (64 bytes on x86): the field plus seven pad words.
const slotPadWords = pmem.LineSize/pmem.WordSize - 1

// pubView is one stripe of the instance's shared latest-view slot
// array. The two hot atomics each own a cache line (see the
// false-sharing note in the package comment); the diagnostic counter
// has a third line, padded so the guarded payload that follows cannot
// land on it either. The linepad analyzer re-derives the layout from
// the target sizes (the static twin of TestPubViewCacheLineLayout),
// including the tail pad that rounds the whole struct to a line
// multiple — instances hold stripes in a []pubView, so a ragged tail
// would put the next stripe's hot ver line on this stripe's payload.
//
//onll:linepadded
type pubView struct {
	// ver is the seqlock version: even = free, odd = held. Publishers
	// and adopters both acquire with one CAS and fall back (no retry,
	// no spin) on failure.
	ver atomic.Uint64
	_   [slotPadWords]uint64
	// frontier mirrors idx outside the slot: publishers store it while
	// holding ver, anyone may load it without acquiring. It exists so
	// the update-side publication damper, the adopter stripe scan, and
	// tests can read how far the slot lags without touching the CAS.
	frontier atomic.Uint64
	_        [slotPadWords]uint64
	// publishes counts successful publications (diagnostics/tests).
	publishes atomic.Uint64
	_         [slotPadWords]uint64
	// The payload below is written and read only while holding ver.
	state spec.State
	idx   uint64
	seqs  []uint64
	_     [2]uint64 // rounds the stripe to a whole number of lines
}

// reset returns the slot to its initial free state, dropping any
// publication. New and Recover call it for every stripe (via
// resetSlots) so a slot can never be BORN held: within a run a holder
// killed between acquire and release (a crash gate firing at
// PointSlotCopy) leaves the version odd and merely disables the
// optimization until the crash completes — contenders never wait on
// the slot — but recovery must not inherit that dead lock, and the
// recovered trace's indices restart relative to a new base anyway.
// check's TestSlotHolderCrashRecovery pins adoptions > 0 after exactly
// that crash.
func (p *pubView) reset() {
	p.state = nil
	p.idx = 0
	p.seqs = nil
	p.frontier.Store(0)
	p.ver.Store(0)
}

// tryAcquire takes the slot if it is free, returning the even version
// to pass to release. It never blocks. The seqlockregion analyzer
// checks every caller: between this call and the covering release no
// allocation, channel operation or blocking call may run, and no
// return path may leave the version odd.
//
//onll:seqlock(acquire)
//onll:hotpath
func (p *pubView) tryAcquire() (uint64, bool) {
	v := p.ver.Load()
	if v&1 != 0 || !p.ver.CompareAndSwap(v, v+1) {
		return 0, false
	}
	return v, true
}

// release frees the slot, advancing the version past v+1.
//
//onll:seqlock(release)
//onll:hotpath
func (p *pubView) release(v uint64) { p.ver.Store(v + 2) }

// resolveSlotStripes turns the configured stripe count into the actual
// one: an explicit positive count is used as given (clamped only by
// validation in Config.fill); zero auto-sizes to the parallelism the
// process can actually express — min(GOMAXPROCS, NProcs) — capped at
// maxSlotStripes. Single-slot instances (SlotStripes: 1) reproduce the
// PR 4–7 layout exactly.
func resolveSlotStripes(cfg *Config) int {
	n := cfg.SlotStripes
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > cfg.NProcs {
			n = cfg.NProcs
		}
		if n > maxSlotStripes {
			n = maxSlotStripes
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// stripe returns the handle's OWN stripe — the one its publications go
// to. Pids are dense small integers, so the modulo IS the
// pid hash: with stripes ≥ the hot-handle count every publisher owns a
// stripe outright, and below that the handles sharing a stripe are the
// only ones contending on its line.
//
//onll:hotpath
func (h *Handle) stripe() *pubView {
	pubs := h.in.pubs
	return &pubs[h.pid%len(pubs)]
}

// publishFromUpdate offers the updater's freshly caught-up view to its
// slot stripe at the end of an update: computeUpdate just advanced the
// view to the update's own node, so the handle holds — for free — the
// very state a lagging reader wants, and publishing here is what makes
// the slots track the insert frontier under churn instead of only
// benefiting from rare long read-side catch-ups. The damper is one
// atomic load: publish only when the stripe trails this view by at
// least the damper's node count, so a storm of hot updaters touches
// the slot CAS (and pays the state copy) at most once per that many
// frontier advances instead of serializing on every update. The damper
// is AdoptPolicy.PublishLag when pinned; the adaptive default scales
// with the adoption threshold (see publishCostFactor), bottoming out
// at defaultPublishLag.
//
//onll:hotpath
func (h *Handle) publishFromUpdate() {
	p := h.stripe()
	front := p.frontier.Load()
	if h.viewIdx <= front {
		return
	}
	damper := uint64(h.in.cfg.AdoptPolicy.PublishLag)
	if damper == 0 {
		damper = defaultPublishLag
		if h.in.costs != nil {
			if d := publishCostFactor * h.in.costs.threshold(h.view); d > damper {
				damper = d
			}
		}
	}
	if h.viewIdx-front < damper {
		return
	}
	h.tryPublish()
}

// tryPublish offers the handle's current view to its slot stripe. It
// only ever moves that stripe's publication forward (a stale view
// never replaces a newer one) and skips silently on contention.
//
// Both tryPublish and tryAdopt announce gate points before acquiring
// the slot and again while holding it, so deterministic schedulers can
// preempt — or crash-inject — between the acquire and the copy.
// Suspending (or killing) a holder at a gate blocks nobody: contenders
// fall back to the suffix walk instead of waiting. A slot left
// permanently odd by a killed process disables that stripe for the
// remainder of that run only — construction and recovery reset every
// stripe (resetSlots), so the next era starts with them free.
//
//onll:hotpath
func (h *Handle) tryPublish() {
	h.in.gate.Step(h.pid, PointPublish)
	p := h.stripe()
	v, ok := p.tryAcquire()
	if !ok {
		return
	}
	if h.viewIdx > p.idx {
		h.installView(p)
		p.frontier.Store(p.idx)
		p.publishes.Add(1)
	}
	p.release(v)
}

// copyPriced is the slot-copy protocol step shared by every slot-side
// state copy (publish, adopt): announce
// PointSlotCopy — the caller holds the slot, so deterministic
// schedulers can preempt or crash-inject a holder here — then copy src
// into dst, feeding the cost model when it is live. The timed region is
// sample-gated (adoptCosts.sampleCopy): once the EWMA has converged,
// only one copy in copySampleEvery pays the two clock reads, and the
// gated-off path — like the fixed-policy path — never touches the
// clock at all.
//
//onll:hotpath
func (h *Handle) copyPriced(dst, src spec.State) {
	h.in.gate.Step(h.pid, PointSlotCopy)
	if c := h.in.costs; c != nil && c.sampleCopy() {
		start := time.Now() //onll:clockok(sample-gated EWMA copy probe: sampleCopy admits 1 in copySampleEvery after warmup)
		spec.Copy(dst, src)
		c.observeCopy(spec.SizeHint(dst), time.Since(start)) //onll:clockok(sample-gated EWMA copy probe)
		return
	}
	spec.Copy(dst, src)
}

// installView copies h's whole view into the slot payload — state
// (priced), execution index and covered-sequence vector: the payload
// step of a publication (kept apart from tryPublish so the slot's one
// lazy allocation sits outside its seqlock region). The seqs vector grows
// append-style into the retained array: the slot outlives every
// publisher, so a fresh make per growth would strand the old array,
// and steady state (fixed NProcs) never allocates. Caller holds the
// slot.
//
//onll:hotpath
func (h *Handle) installView(p *pubView) {
	if p.state == nil {
		p.state = h.in.sp.New()
	}
	h.copyPriced(p.state, h.view)
	p.idx = h.viewIdx
	p.seqs = append(p.seqs[:0], h.viewSeqs...)
}

// freshestStripe scans every stripe's frontier mirror and returns the
// one with the highest published index within (minIdx, maxIdx], or nil
// when none qualifies. One plain load per stripe, no RMW: this is the
// adopter-side half of the striping's asymmetry — writers go to their
// own stripe, readers take the best publication anywhere.
//
//onll:hotpath
func (in *Instance) freshestStripe(minIdx, maxIdx uint64) *pubView {
	var best *pubView
	var bestFront uint64
	for i := range in.pubs {
		p := &in.pubs[i]
		f := p.frontier.Load()
		if f <= minIdx || f > maxIdx {
			continue
		}
		if best == nil || f > bestFront {
			best, bestFront = p, f
		}
	}
	return best
}

// tryAdopt replaces the handle's view with a copy of the freshest
// published one when that cuts the replay distance to node. The copy
// only pays for itself when it SAVES enough replay, so the published
// index must be more than minLag ahead of the view — lag to node alone
// is not profitability (a publication one node ahead would cost a full
// state copy to save a single Apply). minLag comes from the caller:
// the instance's cost model (adoptpolicy.go) or the configured fixed
// constant. The publication must also not sit past maxIdx — node.Idx()
// for reads (the view only has to REACH node; equality makes the
// remaining replay empty, the common case under churn where the slots
// track the frontier), node.Idx()-1 for updates (adopting node's own
// operation would lose its return value, which computeUpdate must
// produce by applying it, and break compact's caught-up-at-node
// invariant). The stripe is chosen by the frontier scan; its mirror
// may trail the truth by one in-flight publication, so the bounds are
// re-checked against p.idx under the slot. The copy lands in the
// handle's scratch state and the two swap roles only on success, so
// contention (acquire failure) costs nothing and can never tear the
// live view — on contention the handle simply falls back to the walk
// rather than probing a staler stripe.
//
//onll:hotpath
func (h *Handle) tryAdopt(node *trace.Node, minLag, maxIdx uint64) {
	h.in.gate.Step(h.pid, PointAdopt)
	p := h.in.freshestStripe(h.viewIdx+minLag, maxIdx)
	if p == nil {
		return
	}
	if h.adopt == nil {
		h.adopt = h.in.sp.New() // once per handle, before the slot is held
	}
	v, ok := p.tryAcquire()
	if !ok {
		return // contention: fall back to the plain suffix walk
	}
	if p.state == nil || p.idx <= h.viewIdx || p.idx-h.viewIdx <= minLag || p.idx > maxIdx {
		p.release(v)
		return
	}
	// Published sequence vectors are elementwise >= those of any older
	// view (prefixes only grow), but merge rather than assume. The
	// scratch/view swap comes after the release.
	h.copyPriced(h.adopt, p.state)
	idx := p.idx
	mergeSeqs(h.viewSeqs, p.seqs)
	p.release(v)
	h.view, h.adopt = h.adopt, h.view
	h.viewIdx = idx
	h.adoptions.Add(1)
}

// FastPathStats reports the shared-slot activity of the read fast path
// since construction: successful publications (from updates, long read
// catch-ups and compaction) summed over every stripe, and successful
// view adoptions across all handles. Zero-valued when ReadFastPath is
// off. The counters are atomic, so a mid-run call is safe, but the sums
// are sampled independently (diagnostics and tests, not an invariant
// surface).
type FastPathStats struct {
	Publishes uint64
	// SlotReads is always 0: no read is served from a slot since PR 15.
	// Kept only because bench/ reads it; the next benchmark PR drops it.
	SlotReads uint64
	Adoptions uint64
	// Stripes is the resolved published-view stripe count (0 when the
	// fast path is off).
	Stripes int
}

// FastPathStats implements the accessor on Instance.
func (in *Instance) FastPathStats() FastPathStats {
	var s FastPathStats
	if in.pubs == nil {
		return s
	}
	s.Stripes = len(in.pubs)
	for i := range in.pubs {
		s.Publishes += in.pubs[i].publishes.Load()
	}
	for _, h := range in.hands {
		s.Adoptions += h.adoptions.Load()
	}
	return s
}
