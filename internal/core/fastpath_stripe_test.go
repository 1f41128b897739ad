package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestPubViewCacheLineLayout pins the false-sharing fix structurally:
// the slot's two hot atomics — ver (CASed by every acquire) and
// frontier (stored by every publication, loaded by every damper check
// and stripe scan) — must each own a 64-byte cache line, the guarded
// payload must not share a line with either or with the counter, and
// the stripe is exactly four lines (ver | frontier | publishes |
// payload) so consecutive stripes in the []pubView stay line-aligned.
// On the pre-PR 8 layout the hot words sat adjacent, so a slot
// acquisition invalidated the line a publisher's damper check was about
// to load; this test fails on that layout.
func TestPubViewCacheLineLayout(t *testing.T) {
	var p pubView
	line := func(off uintptr) uintptr { return off / pmem.LineSize }
	offs := map[string]uintptr{
		"ver":      unsafe.Offsetof(p.ver),
		"frontier": unsafe.Offsetof(p.frontier),
		"counters": unsafe.Offsetof(p.publishes),
		"payload":  unsafe.Offsetof(p.state),
	}
	seen := map[uintptr]string{}
	for name, off := range offs {
		if prev, dup := seen[line(off)]; dup {
			t.Errorf("%s (offset %d) shares cache line %d with %s (false sharing)",
				name, off, line(off), prev)
			continue
		}
		seen[line(off)] = name
	}
	for _, name := range []string{"ver", "frontier"} {
		if offs[name]%pmem.LineSize != 0 {
			t.Errorf("%s at offset %d is not cache-line aligned within the struct", name, offs[name])
		}
	}
	if got := unsafe.Sizeof(p); got != 4*pmem.LineSize {
		t.Errorf("pubView is %d bytes, want %d (four cache lines)", got, 4*pmem.LineSize)
	}
}

// TestHandlesShareNoCacheLine pins the other false-sharing layout: every
// operation writes its own Handle (busy, floor, seq, viewIdx), so each
// handle must start on a cache line and span a whole number of them.
// Handles are allocated one by one, so this rests on the struct size
// being a line multiple (the tail pad) and the allocator's size class
// for it being one too; the address check catches either slipping.
// Without the pad Handle is 288 bytes, every second handle starts
// mid-line, and two readers on two cores ran at half speed.
func TestHandlesShareNoCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Handle{}); sz%pmem.LineSize != 0 {
		t.Errorf("Handle is %d bytes, not a multiple of the %d-byte line", sz, pmem.LineSize)
	}
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{NProcs: 8, ReadFastPath: true, LogCapacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for pid, h := range in.hands {
		if off := uintptr(unsafe.Pointer(h)) % pmem.LineSize; off != 0 {
			t.Errorf("handle %d starts %d bytes into a cache line", pid, off)
		}
	}
}

// TestWalkingReadLeavesSlotsAlone pins the two-route read path: a read
// is an epoch hit or a walk, and a walk inside the adoption threshold
// acquires no slot stripe at all. After one foreign update the reader's
// next Read must see the new value while every stripe's ver and
// frontier stay exactly as they were (with the epoch-stamped third
// route the walk ended in a stamp that acquired the reader's stripe and
// bumped ver by 2 — this test fails there), and the walk must validate
// the handle's view against the current epoch so the read after it is
// an epoch hit.
func TestWalkingReadLeavesSlotsAlone(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, LogCapacity: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, r := in.Handle(0), in.Handle(1)
	if got := r.Read(objects.CounterGet); got != 0 {
		t.Fatalf("initial read %d, want 0", got)
	}
	if _, _, err := w.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	type slotWords struct{ ver, frontier uint64 }
	snap := func() []slotWords {
		out := make([]slotWords, len(in.pubs))
		for i := range in.pubs {
			out[i] = slotWords{in.pubs[i].ver.Load(), in.pubs[i].frontier.Load()}
		}
		return out
	}
	before := snap()
	if got := r.Read(objects.CounterGet); got != 1 {
		t.Fatalf("read after a foreign update returned %d, want 1", got)
	}
	for i, a := range snap() {
		if a != before[i] {
			t.Errorf("stripe %d moved from %+v to %+v under a one-node walking read", i, before[i], a)
		}
	}
	if r.seenEpoch != in.tr.Epoch(r.pid) {
		t.Fatalf("walk left seenEpoch %d, trace epoch is %d: the next read would walk again", r.seenEpoch, in.tr.Epoch(r.pid))
	}
	if got := r.Read(objects.CounterGet); got != 1 {
		t.Fatalf("epoch-hit read returned %d, want 1", got)
	}
}

// TestSlotStripesResolve covers the stripe-count plumbing: explicit
// counts are honoured (and surfaced via FastPathStats.Stripes), auto
// sizing never exceeds NProcs, and the freshest-stripe scan picks the
// highest published frontier across stripes regardless of which pid's
// stripe holds it.
func TestSlotStripesResolve(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 4, ReadFastPath: true, SlotStripes: 4, LogCapacity: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.FastPathStats().Stripes; got != 4 {
		t.Fatalf("explicit SlotStripes=4 resolved to %d", got)
	}

	pool2 := pmem.New(1<<22, nil)
	in2, err := New(pool2, objects.CounterSpec{}, Config{
		NProcs: 1, ReadFastPath: true, LogCapacity: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.FastPathStats().Stripes; got != 1 {
		t.Fatalf("auto stripes with NProcs=1 resolved to %d, want 1", got)
	}

	// Publish to two different stripes at different indices by driving
	// the publishers directly, then ask the scan for the freshest.
	h0, h2 := in.Handle(0), in.Handle(2)
	for i := 0; i < 48; i++ {
		if _, _, err := h0.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	h0.tryPublish() // stripe 0, idx 48
	for i := 0; i < 16; i++ {
		if _, _, err := h2.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	h2.Read(objects.CounterGet) // catch h2 up to 64
	h2.tryPublish()             // stripe 2, idx 64
	if f0, f2 := in.pubs[0].frontier.Load(), in.pubs[2].frontier.Load(); f0 != 48 || f2 != 64 {
		t.Fatalf("stripe frontiers (%d, %d), want (48, 64)", f0, f2)
	}
	if p := in.freshestStripe(0, ^uint64(0)); p != &in.pubs[2] {
		t.Fatalf("freshestStripe picked frontier %d, want stripe 2 at 64", p.frontier.Load())
	}
	if p := in.freshestStripe(50, ^uint64(0)); p != &in.pubs[2] {
		t.Fatal("freshestStripe ignored the minIdx-qualifying stripe")
	}
	if p := in.freshestStripe(0, 60); p != &in.pubs[0] {
		t.Fatal("freshestStripe ignored the maxIdx bound")
	}
	if p := in.freshestStripe(64, ^uint64(0)); p != nil {
		t.Fatal("freshestStripe invented a stripe beyond every frontier")
	}
}

// TestStripedSlotSoak pounds the STRIPED slots under real concurrency
// (run with -race): four writers — each hashing to its own stripe —
// publish while readers adopt across stripes, cold handles bootstrap
// from whatever stripe is freshest, and the writers' compaction
// cadence recycles trace nodes underneath. The object is the bank:
// transfers conserve the total, so any torn adopted view (a copy
// racing a publisher on SOME stripe, which each stripe's seqlock must
// prevent) surfaces as a non-conserved read. Afterwards the machinery
// must demonstrably have run on more than one stripe.
func TestStripedSlotSoak(t *testing.T) {
	writes := 12_000
	if testing.Short() {
		writes = 3_000
	}
	const nprocs = 8 // pids 0..3 write (4 stripes), 4..6 read, 7 cold
	const accounts = 8
	const perAccount = 1_000
	const total = accounts * perAccount
	pool := pmem.New(1<<26, nil)
	in, err := New(pool, objects.BankSpec{}, Config{
		NProcs: nprocs, ReadFastPath: true, SlotStripes: 4,
		CompactEvery: 48, LogCapacity: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0 := in.Handle(0)
	for a := uint64(1); a <= accounts; a++ {
		if _, _, err := h0.Update(objects.BankDeposit, a, perAccount); err != nil {
			t.Fatal(err)
		}
	}

	var writersLive atomic.Int64
	writersLive.Store(4)
	var wg sync.WaitGroup
	for pid := 0; pid < 4; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer writersLive.Add(-1)
			h := in.Handle(pid)
			rng := uint64(0x9e3779b97f4a7c15) * uint64(pid+1)
			for i := 0; i < writes/4; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := 1 + rng%accounts
				to := 1 + (rng>>8)%accounts
				amt := 1 + (rng>>16)%32
				if _, _, err := h.Update(objects.BankTransfer, from, to, amt); err != nil {
					panic(err)
				}
			}
		}(pid)
	}
	for pid := 4; pid <= 6; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			i := 0
			for writersLive.Load() > 0 {
				if got := h.Read(objects.BankTotal); got != total {
					t.Errorf("p%d: torn view: total %d != %d", pid, got, total)
					return
				}
				i++
				if i%4 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			}
			if got := h.Read(objects.BankTotal); got != total {
				t.Errorf("p%d: final total %d != %d", pid, got, total)
			}
		}(pid)
	}
	wg.Wait()

	// Cold bootstrap across stripes: pid 7 sat out the whole run and
	// must still read a conserved total on its first, maximally lagged
	// read (adopting the freshest stripe rather than replaying).
	cold := in.Handle(7)
	if got := cold.Read(objects.BankTotal); got != total {
		t.Fatalf("cold handle: total %d != %d", got, total)
	}

	stats := in.FastPathStats()
	if stats.Stripes != 4 {
		t.Fatalf("resolved %d stripes, want 4", stats.Stripes)
	}
	if stats.Publishes == 0 || stats.Adoptions == 0 {
		t.Fatalf("striped machinery idle: publishes=%d adoptions=%d", stats.Publishes, stats.Adoptions)
	}
	striped := 0
	for i := range in.pubs {
		if in.pubs[i].publishes.Load() > 0 {
			striped++
		}
	}
	if striped < 2 {
		t.Fatalf("only %d stripe(s) ever published; striping degenerated to a single slot", striped)
	}
	t.Logf("stripes=%d published-stripes=%d publishes=%d adoptions=%d slot-reads=%d",
		stats.Stripes, striped, stats.Publishes, stats.Adoptions, stats.SlotReads)
}

// TestRootOverlapRejected is the regression test for the RootBase
// partition check (pre-PR 8, two instances with overlapping root
// ranges were accepted and silently clobbered each other's root
// slots): a partial overlap must fail with ErrRootOverlap at create
// time, disjoint ranges must tile fine, and re-claiming the IDENTICAL
// range must stay allowed — that is recovery of the same instance on
// the same in-process pool, which crash tests do routinely.
func TestRootOverlapRejected(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	cfg := Config{NProcs: 2, LogCapacity: 1 << 10}
	if _, err := New(pool, objects.CounterSpec{}, cfg); err != nil {
		t.Fatal(err)
	}
	over := cfg
	over.RootBase = RootSpan(2) - 1 // last slot of the first claim
	if _, err := New(pool, objects.CounterSpec{}, over); !errors.Is(err, ErrRootOverlap) {
		t.Fatalf("overlapping RootBase accepted (err=%v), want ErrRootOverlap", err)
	}
	next := cfg
	next.RootBase = RootSpan(2)
	if _, err := New(pool, objects.CounterSpec{}, next); err != nil {
		t.Fatalf("disjoint RootBase rejected: %v", err)
	}
	// Identical re-claim: recovering instance 0 on the same pool object.
	if _, _, err := Recover(pool, objects.CounterSpec{}, Config{LogCapacity: 1 << 10}); err != nil {
		t.Fatalf("same-range recovery rejected: %v", err)
	}
}
