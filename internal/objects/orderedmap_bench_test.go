package objects

import (
	"testing"

	"repro/internal/spec"
)

// The objects layer's own benchmarks. They double as the record behind
// omapBlockCap: EXPERIMENTS.md ("OrderedMap block capacity") is this
// file run at 128/256/512/1024.

var omapBenchSizes = []struct {
	name string
	n    int
}{{"1k", 1 << 10}, {"64k", 1 << 16}, {"1M", 1 << 20}}

// benchOMap returns a map of the n even keys 0, 2, ... as recovery
// leaves it (Restore's block fill), so odd keys are free to put.
func benchOMap(b *testing.B, n int) *omapState {
	w := make([]uint64, 0, 2+2*n)
	w = append(w, tagOMap, uint64(n))
	for i := 0; i < n; i++ {
		w = append(w, uint64(2*i), uint64(i))
	}
	s := OrderedMapSpec{}.New().(*omapState)
	if err := s.Restore(w); err != nil {
		b.Fatal(err)
	}
	return s
}

// xorshift is the benchmarks' inline key source.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

var omapSink uint64

// BenchmarkOrderedMapApply is one put of a fresh key and its delete, at
// keys drawn from the lowest, middle and highest eighth of the map. A
// blocked layout prices the three alike at every size; the flat slice
// it replaced cost O(n) at the front and nothing at the back.
func BenchmarkOrderedMapApply(b *testing.B) {
	for _, sz := range omapBenchSizes {
		for _, at := range []struct {
			name string
			lo   int // first rank of the eighth, in sixteenths of n
		}{{"front", 0}, {"middle", 7}, {"back", 14}} {
			b.Run(at.name+"/"+sz.name, func(b *testing.B) {
				s := benchOMap(b, sz.n)
				lo, span := uint64(at.lo*sz.n/16), uint64(sz.n/8)
				x := uint64(88172645463325252)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x = xorshift(x)
					k := 2*(lo+x%span) + 1
					omapSink += s.Apply(spec.Op{Code: OMapPut, Args: [3]uint64{k, x}})
					omapSink += s.Apply(spec.Op{Code: OMapDel, Args: [3]uint64{k}})
				}
			})
		}
	}
}

// BenchmarkOrderedMapGet is one lookup of a present key drawn
// uniformly.
func BenchmarkOrderedMapGet(b *testing.B) {
	for _, sz := range omapBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := benchOMap(b, sz.n)
			x := uint64(88172645463325252)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = xorshift(x)
				omapSink += s.Read(spec.Op{Code: OMapGet, Args: [3]uint64{2 * (x % uint64(sz.n))}})
			}
		})
	}
}

// BenchmarkOrderedMapSlide is lib-churn's update pair on the bare
// state: put above the maximum, delete the minimum.
func BenchmarkOrderedMapSlide(b *testing.B) {
	for _, sz := range omapBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := benchOMap(b, sz.n)
			lo, hi := uint64(0), uint64(2*sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omapSink += s.Apply(spec.Op{Code: OMapPut, Args: [3]uint64{hi, hi}})
				omapSink += s.Apply(spec.Op{Code: OMapDel, Args: [3]uint64{lo}})
				lo, hi = lo+2, hi+2
			}
		})
	}
}

// BenchmarkOrderedMapEmitDelta is one delta cut of a 64-op window on a
// 64k-key map: the window's keys at the two ends of the map (what a
// sliding window leaves) and spread over all of it.
func BenchmarkOrderedMapEmitDelta(b *testing.B) {
	const n = 1 << 16
	for _, shape := range []string{"ends", "spread"} {
		b.Run(shape, func(b *testing.B) {
			s := benchOMap(b, n)
			ops := make([]spec.Op, 64)
			for i := range ops {
				k := uint64(i) * (2 * n / 64) // spread: an existing key every 1/64th
				if shape == "ends" {
					k = uint64(2*n - 2 - i) // the top 32 keys...
					if i%2 == 1 {
						k = uint64(i) // ...and 32 absent ones beside the lowest
					}
				}
				ops[i] = spec.Op{Code: OMapPut, Args: [3]uint64{k, 1}}
			}
			var dst []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = s.EmitDelta(dst[:0], ops)
			}
			omapSink += uint64(len(dst))
		})
	}
}
