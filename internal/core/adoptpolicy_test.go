package core

import (
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// fatState is a Sizer-less state wrapper hiding the underlying size
// hint, for exercising threshold's fallbacks.
type fatState struct{ spec.State }

func TestAdoptCostsThreshold(t *testing.T) {
	var c adoptCosts
	view := objects.OrderedMapSpec{}.New()

	// No samples yet: the PR 4 constant is the fallback.
	if got := c.threshold(view); got != adoptFixedMinLag {
		t.Fatalf("unsampled threshold = %d, want fallback %d", got, adoptFixedMinLag)
	}
	// One-sided samples still fall back.
	c.observeWalk(16, 16*time.Microsecond)
	if got := c.threshold(view); got != adoptFixedMinLag {
		t.Fatalf("walk-only threshold = %d, want fallback %d", got, adoptFixedMinLag)
	}

	// Expensive applies (1µs/node) vs cheap copies (0.25ns/word — the
	// Q8 floor of 1) on a small state: copying pays almost immediately,
	// so the threshold clamps to the floor.
	c.observeCopy(1024, 1*time.Microsecond)
	if got := c.threshold(view); got != adoptLagFloor {
		t.Fatalf("cheap-copy threshold = %d, want floor %d", got, adoptLagFloor)
	}

	// Flip the economics: cheap applies, expensive copies on a large
	// state. nodeNs ~= 40ns, wordNs ~= 64ns: the threshold must now
	// scale with the state size rather than sit at a constant.
	var c2 adoptCosts
	for i := 0; i < 64; i++ {
		c2.observeWalk(100, 4*time.Microsecond)   // 40 ns/node
		c2.observeCopy(1000, 64*time.Microsecond) // 64 ns/word
	}
	st := objects.OrderedMapSpec{}.New()
	for k := uint64(1); k <= 2000; k++ {
		st.Apply(spec.Op{Code: objects.OMapPut, Args: [3]uint64{k, k}})
	}
	thr := c2.threshold(st)
	if thr <= adoptLagFloor || thr >= adoptLagCeil {
		t.Fatalf("scaled threshold = %d, want strictly between clamps (%d, %d)", thr, adoptLagFloor, adoptLagCeil)
	}
	// Roughly words * 64/40: the hint is ~4001 words.
	if lo, hi := uint64(2000), uint64(20000); thr < lo || thr > hi {
		t.Fatalf("scaled threshold = %d for a ~4000-word state at 64ns/word vs 40ns/node; want within [%d, %d]", thr, lo, hi)
	}

	// A Sizer-less state uses the last observed copy size.
	thrFat := c2.threshold(fatState{st})
	if thrFat == adoptFixedMinLag || thrFat < adoptLagFloor || thrFat > adoptLagCeil {
		t.Fatalf("sizer-less threshold = %d, want a copyWords-based estimate", thrFat)
	}

	// Outlier clamps: a descheduled walk cannot blow up the estimate.
	var c3 adoptCosts
	c3.observeWalk(1, time.Second)
	if got := c3.nodeNsQ8.Load(); got != maxNodeNsQ8 {
		t.Fatalf("walk outlier stored %d, want clamp %d", got, maxNodeNsQ8)
	}
	c3.observeCopy(1, time.Second)
	if got := c3.wordNsQ8.Load(); got != maxWordNsQ8 {
		t.Fatalf("copy outlier stored %d, want clamp %d", got, maxWordNsQ8)
	}
}

func TestEWMAConvergesAndNeverStalls(t *testing.T) {
	var c adoptCosts
	for i := 0; i < 200; i++ {
		c.observeWalk(10, 10*1000*time.Nanosecond) // 1000 ns/node
	}
	got := c.nodeNsQ8.Load() >> 8
	if got < 900 || got > 1100 {
		t.Fatalf("EWMA converged to %d ns/node, want ~1000", got)
	}
	// Tiny deltas must still move the estimator (the ±1 nudge).
	before := c.nodeNsQ8.Load()
	c.observeWalk(10, 10*1001*time.Nanosecond)
	if c.nodeNsQ8.Load() == before {
		t.Fatal("EWMA stalled on a sub-alpha delta")
	}
}

func TestAdoptPolicyValidation(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	if _, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, ReadFastPath: true, AdoptPolicy: AdoptPolicy{FixedMinLag: -1},
	}); err == nil {
		t.Fatal("negative FixedMinLag accepted")
	}
	if _, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, ReadFastPath: true, AdoptPolicy: AdoptPolicy{PublishLag: -2},
	}); err == nil {
		t.Fatal("negative PublishLag accepted")
	}
	// A fixed policy must not pay for the cost model.
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, ReadFastPath: true, AdoptPolicy: AdoptPolicy{FixedMinLag: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.costs != nil {
		t.Fatal("fixed-threshold instance allocated a cost model")
	}
	if got := in.Handle(0).adoptThreshold(); got != 7 {
		t.Fatalf("fixed threshold = %d, want 7", got)
	}
	// The adaptive default does.
	in2, err := New(pool, objects.CounterSpec{}, Config{NProcs: 1, ReadFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if in2.costs == nil {
		t.Fatal("adaptive instance has no cost model")
	}
}

func TestCopySampleGate(t *testing.T) {
	// Warmup: every copy is timed. Steady state: exactly one in
	// copySampleEvery pays the clock reads; the rest run gated off.
	var c adoptCosts
	for i := 1; i <= copyWarmupSamples; i++ {
		if !c.sampleCopy() {
			t.Fatalf("warmup copy %d not timed", i)
		}
	}
	const after = 1600
	timed := 0
	for i := 0; i < after; i++ {
		if c.sampleCopy() {
			timed++
		}
	}
	if want := after / copySampleEvery; timed != want {
		t.Fatalf("%d of %d post-warmup copies timed, want %d (1 in %d)",
			timed, after, want, copySampleEvery)
	}
	if got := c.copySamples.Load(); got != uint64(copyWarmupSamples+after/copySampleEvery) {
		t.Fatalf("copySamples = %d, want %d", got, copyWarmupSamples+after/copySampleEvery)
	}
}

func TestEWMAConvergesUnderSampling(t *testing.T) {
	// The sample gate must not break convergence: feeding the copy-cost
	// EWMA only on gated-in ticks still reaches the true per-word cost
	// within the warmup window, and tracks a drift afterwards.
	var c adoptCosts
	const words = 512
	cost := func() time.Duration { return time.Duration(words) * 2 * time.Nanosecond } // 2 ns/word
	ticks := 0
	for c.copySamples.Load() < copyWarmupSamples {
		ticks++
		if c.sampleCopy() {
			c.observeCopy(words, cost())
		}
	}
	if ticks != copyWarmupSamples {
		t.Fatalf("warmup consumed %d ticks, want %d (all timed)", ticks, copyWarmupSamples)
	}
	if got, want := c.wordNsQ8.Load(), uint64(2<<8); got != want {
		t.Fatalf("converged wordNsQ8 = %d, want %d (2 ns/word)", got, want)
	}
	// Drift the true cost to 4 ns/word; sparse samples must still pull
	// the estimate there (alpha 1/8 closes 96% of the gap in 24
	// samples — 24*copySampleEvery ticks under the gate).
	cost = func() time.Duration { return time.Duration(words) * 4 * time.Nanosecond }
	for i := 0; i < 30*copySampleEvery; i++ {
		if c.sampleCopy() {
			c.observeCopy(words, cost())
		}
	}
	got := c.wordNsQ8.Load()
	if got < (4<<8)*9/10 || got > (4<<8)*11/10 {
		t.Fatalf("post-drift wordNsQ8 = %d, want within 10%% of %d", got, 4<<8)
	}
}

func TestFastPathCopiesAreSampleGated(t *testing.T) {
	// Integration: a real instance under fast-path churn must show more
	// slot copies than timed samples — i.e. the steady-state copy path
	// really runs clock-free — while the cost model still has data.
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, SlotStripes: 1,
		// Publish on every update: publication is the slot copy this
		// loop drives, and the adaptive damper alone would let only a
		// handful through. The threshold stays adaptive (FixedMinLag
		// unset), so the cost model under test is live.
		AdoptPolicy: AdoptPolicy{PublishLag: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	for i := 0; i < 4000; i++ {
		if _, _, err := h0.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
		h1.Read(objects.CounterGet)
	}
	tick, samples := in.costs.copyTick.Load(), in.costs.copySamples.Load()
	if tick <= copyWarmupSamples {
		t.Skipf("only %d slot copies happened; gate never left warmup", tick)
	}
	if samples >= tick {
		t.Fatalf("all %d copies timed (samples=%d); gate not engaged", tick, samples)
	}
	if in.costs.wordNsQ8.Load() == 0 {
		t.Fatal("cost model has no copy samples despite gated sampling")
	}
}
