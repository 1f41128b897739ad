package pmem

import "testing"

// BenchmarkWriteBack is pmem's own layer benchmark: one write-back as
// the log layer performs it — StoreRange, FlushRange, one Fence — at the
// sizes the update pipeline produces. record is an inline update
// record (9 words over 2 lines), delta a 40-line compaction delta,
// base a 16 384-line chain base (1 MiB of state, as on lib-churn), and
// delta-after-base the 40-line delta on a pid that has already written
// a base back, so a pending-set cost that grows with the largest set
// ever pended shows as delta-after-base ≫ delta.
func BenchmarkWriteBack(b *testing.B) {
	const baseLines = 16384
	for _, c := range []struct {
		name    string
		words   int
		warmups int // base-sized write-backs before the timer
	}{
		{"record", 9, 0},
		{"delta", 40 * LineWords, 0},
		{"base", baseLines * LineWords, 0},
		{"delta-after-base", 40 * LineWords, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := New((baseLines+1)*LineSize+rootBytes, nil)
			addr := p.MustAlloc(baseLines * LineSize)
			vals := make([]uint64, baseLines*LineWords)
			const pid = 0
			for range c.warmups {
				p.StoreRange(pid, addr, vals)
				p.FlushRange(pid, addr, len(vals)*WordSize)
				p.Fence(pid)
			}
			vals = vals[:c.words]
			lines := p.StatsOf(pid).LinesPersisted
			b.ResetTimer()
			for i := range b.N {
				vals[0] = uint64(i)
				p.StoreRange(pid, addr, vals)
				p.FlushRange(pid, addr, len(vals)*WordSize)
				p.Fence(pid)
			}
			b.StopTimer()
			lines = p.StatsOf(pid).LinesPersisted - lines
			b.ReportMetric(float64(lines)/float64(b.N), "lines/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
		})
	}
}
