package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// TestRecoveryRejectsUnrestorableBase pins that a checksummed base whose
// state the spec cannot restore is unreconstructible coverage, whichever
// record carries it: a legacy full snapshot (KindSnapshot) fails exactly
// like a chain base with the same payload. Recovery restores every
// candidate before it adopts one, so a strict recovery fails with
// ErrSnapshotCorrupt and a salvaging one returns the instance
// quarantined, with or without local views. A snapshot used to be
// decoded only: with views its restore panicked in makeHandles, and
// without them recovery reported Healthy at the bad base and the first
// Read panicked.
func TestRecoveryRejectsUnrestorableBase(t *testing.T) {
	const puts = 5
	for _, kind := range []string{"snapshot", "chain-base"} {
		for _, views := range []bool{false, true} {
			for _, salvage := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/views=%v/salvage=%v", kind, views, salvage), func(t *testing.T) {
					pool := pmem.New(1<<20, nil)
					in, err := New(pool, objects.OrderedMapSpec{}, Config{NProcs: 1})
					if err != nil {
						t.Fatal(err)
					}
					for k := uint64(0); k < puts; k++ {
						if _, _, err := in.Handle(0).Update(objects.OMapPut, k, k+1); err != nil {
							t.Fatal(err)
						}
					}
					pool.Crash(pmem.DropAll)

					// A base at index puts covering every put, whose state
					// is a counter's: it checksums and decodes, but an
					// ordered map refuses to restore it.
					l, err := plog.Open(pool, 0, pmem.Addr(pool.Root(rootLogBase)))
					if err != nil {
						t.Fatal(err)
					}
					payload := append(snapEncode(nil, []uint64{puts}), objects.CounterSpec{}.New().Snapshot()...)
					if kind == "snapshot" {
						_, err = l.AppendSnapshot(payload, puts)
					} else {
						_, err = l.AppendChainBase(payload, puts)
					}
					if err != nil {
						t.Fatal(err)
					}

					in2, rep, err := Recover(pool, objects.OrderedMapSpec{}, Config{LocalViews: views, Salvage: salvage})
					if !salvage {
						if !errors.Is(err, ErrSnapshotCorrupt) {
							t.Fatalf("strict recovery: err %v, want ErrSnapshotCorrupt", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if h := in2.Health(); h.Mode != ModeQuarantined || !errors.Is(h.Reason, ErrSnapshotCorrupt) {
						t.Fatalf("mode %v reason %v, want quarantined ErrSnapshotCorrupt", h.Mode, h.Reason)
					}
					if rep.BaseIdx != 0 || rep.LastIdx != puts {
						t.Fatalf("BaseIdx %d LastIdx %d, want the ops replayed without the base (0, %d)",
							rep.BaseIdx, rep.LastIdx, puts)
					}
					if _, err := in2.Handle(0).TryRead(objects.OMapLen); !errors.Is(err, ErrObjectQuarantined) {
						t.Fatalf("TryRead: %v, want ErrObjectQuarantined", err)
					}
				})
			}
		}
	}
}

// restoreCounts tallies the Restore and Snapshot calls made on the
// states of a countingSpec.
type restoreCounts struct{ restores, snapshots int }

// countingSpec wraps a spec so that its states count Restore and
// Snapshot calls (AppendSnapshot, the encoder cuts use, is not counted).
type countingSpec struct {
	spec.Spec
	n *restoreCounts
}

func (s countingSpec) New() spec.State { return &countingState{State: s.Spec.New(), n: s.n} }

type countingState struct {
	spec.State
	n *restoreCounts
}

func (c *countingState) Restore(words []uint64) error {
	c.n.restores++
	return c.State.Restore(words)
}

func (c *countingState) Snapshot() []uint64 {
	c.n.snapshots++
	return c.State.Snapshot()
}

// TestRecoveryRestoresBaseOnce pins that recovery restores the base
// state once, into the state the first local view keeps, and encodes
// nothing: a base-only chain has no delta to fold, so its payload is
// the trace's base words as it is. Every further view restores its own
// copy from those words.
func TestRecoveryRestoresBaseOnce(t *testing.T) {
	const cutEvery, updates = 8, 12
	for nprocs := 1; nprocs <= 2; nprocs++ {
		t.Run(fmt.Sprintf("nprocs=%d", nprocs), func(t *testing.T) {
			pool := pmem.New(1<<20, nil)
			in, err := New(pool, objects.OrderedMapSpec{}, Config{
				NProcs: nprocs, LogCapacity: 64, CompactEvery: cutEvery, MaxDeltaChain: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < updates; k++ {
				if _, _, err := in.Handle(0).Update(objects.OMapPut, k, k+1); err != nil {
					t.Fatal(err)
				}
			}
			if cs := in.CompactionStats(); cs.Bases != 1 || cs.Deltas != 0 {
				t.Fatalf("setup: %d bases and %d deltas, want a base-only chain", cs.Bases, cs.Deltas)
			}
			pool.Crash(pmem.DropAll)

			var n restoreCounts
			in2, rep, err := Recover(pool, countingSpec{Spec: objects.OrderedMapSpec{}, n: &n}, Config{LocalViews: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.BaseIdx != cutEvery || rep.LastIdx != updates {
				t.Fatalf("BaseIdx %d LastIdx %d, want %d and %d", rep.BaseIdx, rep.LastIdx, cutEvery, updates)
			}
			if n.restores != nprocs || n.snapshots != 0 {
				t.Fatalf("recovery made %d Restore and %d Snapshot calls, want %d and 0",
					n.restores, n.snapshots, nprocs)
			}
			for pid := 0; pid < nprocs; pid++ {
				if got := in2.Handle(pid).Read(objects.OMapLen); got != updates {
					t.Fatalf("p%d reads %d keys, want %d", pid, got, updates)
				}
			}
		})
	}
}

// BenchmarkRecover times Recover of lib-churn's image: an ordered map
// of 65 536 keys on the pipeline config, whose writer has just cut a
// fresh chain base and then logged 256 more updates. Each iteration
// crashes the pool with the timer stopped and times one recovery of
// the same image: restoring the base, folding nothing, reading both
// logs and rebuilding the trace for the tail.
func BenchmarkRecover(b *testing.B) {
	const keys, tail = 1 << 16, 256
	pool := pmem.New(1<<26, nil)
	cfg := Config{NProcs: 2, LocalViews: true, DeltaSnapshots: true, LogCapacity: 1 << 12}
	in, err := New(pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := in.Handle(0)
	i := uint64(0)
	put := func() {
		if _, _, err := h.Update(objects.OMapPut, i%keys, i); err != nil {
			b.Fatal(err)
		}
		i++
	}
	for i < keys {
		put()
	}
	for bases := in.CompactionStats().Bases; in.CompactionStats().Bases == bases; {
		put()
	}
	for end := i + tail; i < end; {
		put()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		pool.Crash(pmem.DropAll)
		b.StartTimer()
		_, rep, err := Recover(pool, objects.OrderedMapSpec{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.LastIdx != i {
			b.Fatalf("recovered %d updates, want %d", rep.LastIdx, i)
		}
	}
}
