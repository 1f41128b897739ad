package core

import (
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// BenchmarkColdRead times the read of a handle that sat idle while one
// writer applied lag updates to an ordered map of the given size, on
// the pipeline config: the catch-up a cold or lagging handle pays. Only
// the read is timed; the writer's lag updates run with the timer
// stopped, so use a small fixed -benchtime (5x) at the large lags.
// nodes/read is the trace suffix the read replayed after restoring the
// newest base: it stays under one chain's worth of cut windows however
// long the handle idled.
func BenchmarkColdRead(b *testing.B) {
	for _, keys := range []uint64{1 << 10, 1 << 16} {
		for _, lag := range []int{100, 1_000, 10_000, 200_000} {
			b.Run(fmt.Sprintf("keys=%d/lag=%d", keys, lag), func(b *testing.B) {
				pool := pmem.New(1<<27, nil)
				in, err := New(pool, objects.OrderedMapSpec{}, Config{
					NProcs: 2, ReadFastPath: true, DeltaSnapshots: true, LogCapacity: 1 << 12,
				})
				if err != nil {
					b.Fatal(err)
				}
				w, r := in.Handle(0), in.Handle(1)
				rng := uint64(0x9e3779b97f4a7c15)
				put := func(k uint64) {
					if _, _, err := w.Update(objects.OMapPut, k, rng); err != nil {
						b.Fatal(err)
					}
				}
				for k := uint64(0); k < keys; k++ {
					put(k)
				}
				r.Read(objects.OMapLen)
				var nodes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < lag; j++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						put(rng % keys)
					}
					b.StartTimer()
					if got := r.Read(objects.OMapLen); got != keys {
						b.Fatalf("cold read: len %d, want %d", got, keys)
					}
					nodes += len(r.nodeBuf)
				}
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/read")
			})
		}
	}
}
