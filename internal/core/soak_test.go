package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestBankConservedUnderCompactionSoak pounds the walking read path
// under real concurrency (run it with -race): writers transfer between
// bank accounts while readers catch up by walking and the writers'
// compaction cadence cuts the trace and recycles its nodes under them.
// Transfers conserve the total balance, so a read that replayed a
// recycled node, skipped one, or restored a base and then went
// backwards surfaces as a non-conserved total. One writer is the
// single-cutter shape; four writers race their cuts (foreign bases,
// claim walks over each other's segments). A handle that sat out the
// whole run then reads once, maximally lagged, from the newest base.
func TestBankConservedUnderCompactionSoak(t *testing.T) {
	for _, writers := range []int{1, 4} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			writes := 24_000
			if testing.Short() {
				writes = 6_000
			}
			const nprocs = 8 // pids < writers write, the rest read, 7 stays cold
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

			var writersLive atomic.Int64
			writersLive.Store(int64(writers))
			var wg sync.WaitGroup
			for pid := 0; pid < writers; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					defer writersLive.Add(-1)
					h := in.Handle(pid)
					rng := uint64(0x9e3779b97f4a7c15) * uint64(pid+1)
					for i := 0; i < writes/writers; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						from := 1 + rng%accounts
						to := 1 + (rng>>8)%accounts
						amt := 1 + (rng>>16)%32
						if _, _, err := h.Update(objects.BankTransfer, from, to, amt); err != nil {
							t.Errorf("p%d: update %d: %v", pid, i, err)
							return
						}
					}
				}(pid)
			}
			for pid := writers; pid < nprocs-1; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					h := in.Handle(pid)
					i := 0
					for writersLive.Load() > 0 {
						if got := h.Read(objects.BankTotal); got != total {
							t.Errorf("p%d: total %d != %d", pid, got, total)
							return
						}
						i++
						if i%4 == 0 {
							// Let the writers race ahead so the next read
							// lags across one or more trace cuts.
							time.Sleep(200 * time.Microsecond)
						}
					}
					if got := h.Read(objects.BankTotal); got != total {
						t.Errorf("p%d: final total %d != %d", pid, got, total)
					}
				}(pid)
			}
			wg.Wait()

			cold := in.Handle(nprocs - 1)
			if got := cold.Read(objects.BankTotal); got != total {
				t.Fatalf("cold handle: total %d != %d", got, total)
			}
		})
	}
}
