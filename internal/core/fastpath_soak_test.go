package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestPublishAdoptAllocFree pins the steady-state allocation cost of
// the shared-slot machinery at ZERO: an identical update/read cycle is
// measured with the fast path off (the baseline — each update
// allocates exactly its trace node here, compaction being off) and on
// (the same cycle plus publications and adoptions). The two averages
// must match exactly; any difference is an allocation inside
// publish/adopt — e.g. the old `make`-on-growth of the slot's
// seqs vector, which append-style growth now avoids.
func TestPublishAdoptAllocFree(t *testing.T) {
	cycle := func(fast bool) float64 {
		pool := pmem.New(1<<24, nil)
		in, err := New(pool, objects.BankSpec{}, Config{
			NProcs: 2, LocalViews: true, ReadFastPath: fast, LogCapacity: 1 << 12,
			// The fixed threshold keeps adoption decisions identical
			// across runs; publishing every 8 frontier advances makes
			// the measured cycle exercise the slot copy every time.
			AdoptPolicy: AdoptPolicy{FixedMinLag: 16, PublishLag: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		w, r := in.Handle(0), in.Handle(1)
		step := func() {
			for i := 0; i < 40; i++ {
				if _, _, err := w.Update(objects.BankDeposit, 1+uint64(i%4), 5); err != nil {
					t.Fatal(err)
				}
			}
			r.Read(objects.BankTotal)
		}
		step() // warm-up: scratch states, slot state, buffers all grown
		step()
		return testing.AllocsPerRun(50, step)
	}
	off, on := cycle(false), cycle(true)
	if on != off {
		t.Fatalf("fast-path cycle allocates %.1f/run vs %.1f/run baseline (publish/adopt must be allocation-free)", on, off)
	}
	t.Logf("allocs/cycle: off=%.1f on=%.1f", off, on)
}

// TestReadFastPathAdoptionSoak pounds the shared-view slot under real
// concurrency (run it with -race): one writer publishes while many
// readers adopt and the writer's compaction cadence recycles trace
// nodes under them. The object is the bank, whose transfers conserve
// the total balance — a torn adopted view (a copy interleaved with a
// publisher's overwrite, which the seqlock-style acquire must make
// impossible) would be caught as a read of a non-conserved total.
// Afterwards it asserts the machinery actually ran: at least one
// publication and at least one adoption happened, including a
// guaranteed cold-handle adoption by a handle that sat out the run.
func TestReadFastPathAdoptionSoak(t *testing.T) {
	writes := 24_000
	if testing.Short() {
		writes = 6_000
	}
	const nprocs = 8 // pid 0 writes, 1..6 read, 7 stays cold
	const accounts = 8
	const perAccount = 1_000
	const total = accounts * perAccount
	pool := pmem.New(1<<26, nil)
	in, err := New(pool, objects.BankSpec{}, Config{
		NProcs: nprocs, ReadFastPath: true, CompactEvery: 48, LogCapacity: 1 << 12,
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

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		rng := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < writes; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			from := 1 + rng%accounts
			to := 1 + (rng>>8)%accounts
			amt := 1 + (rng>>16)%32
			if _, _, err := h0.Update(objects.BankTransfer, from, to, amt); err != nil {
				panic(err)
			}
		}
	}()
	for pid := 1; pid <= 6; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			i := 0
			for !writerDone.Load() {
				if got := h.Read(objects.BankTotal); got != total {
					t.Errorf("p%d: torn view: total %d != %d", pid, got, total)
					return
				}
				i++
				if i%4 == 0 {
					// Let the writer race ahead so this reader's next
					// view lag clears the adoption threshold.
					time.Sleep(200 * time.Microsecond)
				}
			}
			if got := h.Read(objects.BankTotal); got != total {
				t.Errorf("p%d: final total %d != %d", pid, got, total)
			}
		}(pid)
	}
	wg.Wait()

	// The cold handle's first read lags the whole run: it must adopt
	// the published view (the writer's compaction cadence published
	// well past index 0) rather than replay from the base.
	cold := in.Handle(7)
	if got := cold.Read(objects.BankTotal); got != total {
		t.Fatalf("cold handle: total %d != %d", cold.Read(objects.BankTotal), total)
	}

	stats := in.FastPathStats()
	if stats.Publishes == 0 {
		t.Fatal("shared view was never published (fast path machinery idle)")
	}
	if stats.Adoptions == 0 {
		t.Fatal("no handle ever adopted the published view (soak exercised nothing)")
	}
	t.Logf("publishes=%d adoptions=%d (cold handle adopted=%v)",
		stats.Publishes, stats.Adoptions, cold.adoptions.Load() > 0)
}
