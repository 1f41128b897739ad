package core

// Cost-aware adoption for the read fast path (DESIGN.md §3.6). PR 4
// gated view adoption behind one fixed constant, adoptMinLag=32 trace
// nodes, which prices every object and workload identically — but the
// two sides of the trade vary by orders of magnitude. Copying the
// published view moves the state's size in words (2 for a counter,
// tens of thousands for a grown ordered map); replaying one trace node
// runs one Apply, which is a single add for the counter and an O(state)
// memmove for an ordered-map insert of a fresh key (exactly the YCSB-D
// churn case). A fixed threshold is therefore simultaneously too eager
// (large state, cheap applies: a 33-node lag does not pay for a 20k-word
// copy) and far too timid (expensive applies: under read-latest churn a
// 5-node replay of fresh-key inserts costs several whole-state moves).
//
// adoptCosts learns both sides online, per instance, from the work the
// fast path does anyway: every catch-up walk samples the per-node Apply
// cost, every publication or adoption samples the per-word copy cost,
// and the adoption threshold — the lag, in nodes, at which a copy
// starts paying for itself — falls out as
//
//	threshold = stateWords × nsPerWord / nsPerNode
//
// with stateWords read from spec.SizeHint (O(1), no snapshot). Both
// estimators are EWMAs over Q8 fixed-point nanoseconds, so sub-ns/word
// memcpy rates survive integer arithmetic; samples are clamped so one
// descheduled walk cannot poison the model. Until both costs have a
// sample the policy falls back to the PR 4 constant, and
// Config.AdoptPolicy can pin that constant (or any other) outright.

import (
	"sync/atomic"
	"time"

	"repro/internal/spec"
)

// AdoptPolicy tunes the economics of the read fast path's shared view
// slot (Config.ReadFastPath). The zero value selects the cost-aware
// defaults: an adaptive adoption threshold learned from observed copy
// and replay costs, and damped update-side publication.
type AdoptPolicy struct {
	// FixedMinLag, when positive, pins the adoption threshold to a
	// constant view lag in trace nodes and disables the cost model
	// entirely (no walk or copy timing). The pre-adaptive behaviour is
	// FixedMinLag: 32 (adoptFixedMinLag). Zero selects the adaptive
	// threshold.
	FixedMinLag int
	// PublishLag overrides the update-side publication damper: an
	// updater offers its view only when the shared slot trails it by at
	// least this many nodes, so hot updaters sample one atomic load per
	// update and touch the slot CAS at most once per PublishLag frontier
	// advances. Zero selects defaultPublishLag.
	PublishLag int
}

const (
	// adoptFixedMinLag is the PR 4 constant: the minimum view lag (in
	// trace nodes) before a handle tries adoption. It remains the
	// explicit escape hatch (AdoptPolicy.FixedMinLag) and the adaptive
	// policy's fallback until the cost model has samples.
	adoptFixedMinLag = 32
	// defaultPublishLag is the floor of the update-side publication
	// damper: how far the shared slot may trail the insert frontier
	// before an updater re-publishes. Small enough that adoptable views
	// are never more than a few applies stale, large enough that at
	// most one in defaultPublishLag updates attempts the slot CAS.
	defaultPublishLag = 4
	// publishCostFactor scales the adaptive damper above the adoption
	// threshold. Publication is the cost the UPDATE path pays so
	// adopters can save; publishing once per (factor × threshold)
	// frontier advances caps that overhead at copyCost/factor/threshold
	// ≈ one node-replay-equivalent per factor updates, while adopters —
	// who wake hundreds of nodes behind — only see the slot at most
	// (factor × threshold) nodes stale, a remainder walk that is small
	// against the replay the adoption just skipped. Publications are
	// routinely two orders of magnitude more frequent than adoptions
	// (every hot updater publishes, only waking laggards adopt), which
	// is why the damper must sit well above the adoption threshold.
	publishCostFactor = 16
	// adoptLagFloor/adoptLagCeil clamp the adaptive threshold: below
	// the floor per-read bookkeeping dominates any possible saving;
	// the ceiling keeps a cost-model outlier from disabling adoption
	// outright for the rest of a run.
	adoptLagFloor = 4
	adoptLagCeil  = 1 << 14
)

// Q8 sample caps: one GC pause or OS deschedule inside a timed region
// would otherwise dominate the EWMA for many samples. 4096 ns/node and
// 256 ns/word are each an order of magnitude above any real steady
// state on this substrate.
const (
	maxNodeNsQ8 = 4096 << 8
	maxWordNsQ8 = 256 << 8
)

// costAlphaShift sets the EWMA decay: alpha = 1/8.
const costAlphaShift = 3

// costSampleMinNodes bounds walk sampling to replays of at least this
// many nodes. One-node revalidation walks (every read after the
// handle's own update) are the hot path — two clock reads there would
// cost more than the walk — and the quantity the threshold needs is
// the per-node cost of the LONG replays adoption can skip, which short
// walks, dominated by fixed overheads, misestimate anyway.
const costSampleMinNodes = 8

// Copy-timing sample gate: the first copyWarmupSamples slot copies are
// all timed (the EWMA converges in well under that — alpha 1/8 closes
// 96% of any gap in 24 samples), after which only one copy in
// copySampleEvery pays the two clock reads. Converged estimates drift
// slowly (state size and memcpy rate change over thousands of ops, not
// per copy), so sparse samples track them fine, and the other
// copySampleEvery-1 copies run clock-free.
const (
	copyWarmupSamples = 64
	copySampleEvery   = 16
)

// adoptCosts is the per-instance cost model. The counters are updated
// racily (load/EWMA/store) by every handle; a lost update just drops a
// sample, which the EWMA absorbs — no CAS loop on the read path.
type adoptCosts struct {
	nodeNsQ8  atomic.Uint64 // EWMA: replaying one trace node, Q8 ns
	wordNsQ8  atomic.Uint64 // EWMA: copying one state word, Q8 ns
	copyWords atomic.Uint64 // last observed copy size (Sizer-less fallback)
	// copyTick counts slot copies across all handles; copySamples counts
	// the ones that were actually timed (diagnostics + the sampling
	// regression test).
	copyTick    atomic.Uint64
	copySamples atomic.Uint64
}

// sampleCopy reports whether the next slot copy should be timed: every
// copy during warmup, then one in copySampleEvery. The tick is a single
// atomic add — the gated-off path never touches the clock.
func (c *adoptCosts) sampleCopy() bool {
	t := c.copyTick.Add(1)
	if t <= copyWarmupSamples || t%copySampleEvery == 0 {
		c.copySamples.Add(1)
		return true
	}
	return false
}

// ewma folds sample into a, seeding on the first sample and nudging by
// at least 1 so small deltas cannot stall the estimator.
func ewma(a *atomic.Uint64, sample uint64) {
	old := a.Load()
	if old == 0 {
		a.Store(sample)
		return
	}
	delta := (int64(sample) - int64(old)) >> costAlphaShift
	if delta == 0 && sample != old {
		if sample > old {
			delta = 1
		} else {
			delta = -1
		}
	}
	a.Store(uint64(int64(old) + delta))
}

// observeWalk samples a catch-up that replayed nodes trace nodes in d.
func (c *adoptCosts) observeWalk(nodes int, d time.Duration) {
	if nodes <= 0 {
		return
	}
	s := (uint64(d.Nanoseconds()) << 8) / uint64(nodes)
	if s < 1 {
		s = 1
	}
	if s > maxNodeNsQ8 {
		s = maxNodeNsQ8
	}
	ewma(&c.nodeNsQ8, s)
}

// observeCopy samples a publication or adoption that copied words state
// words in d.
func (c *adoptCosts) observeCopy(words int, d time.Duration) {
	if words <= 0 {
		return
	}
	c.copyWords.Store(uint64(words))
	s := (uint64(d.Nanoseconds()) << 8) / uint64(words)
	if s < 1 {
		s = 1
	}
	if s > maxWordNsQ8 {
		s = maxWordNsQ8
	}
	ewma(&c.wordNsQ8, s)
}

// threshold returns the adaptive adoption threshold for a handle whose
// view is view: the lag, in trace nodes, beyond which copying the
// published view is cheaper than replaying the suffix. Falls back to
// the fixed constant until both cost estimators have a sample and the
// state's size is known.
func (c *adoptCosts) threshold(view spec.State) uint64 {
	node := c.nodeNsQ8.Load()
	word := c.wordNsQ8.Load()
	if node == 0 || word == 0 {
		return adoptFixedMinLag
	}
	words := uint64(spec.SizeHint(view))
	if words == 0 {
		words = c.copyWords.Load()
	}
	if words == 0 {
		return adoptFixedMinLag
	}
	thr := words * word / node
	if thr < adoptLagFloor {
		return adoptLagFloor
	}
	if thr > adoptLagCeil {
		return adoptLagCeil
	}
	return thr
}
