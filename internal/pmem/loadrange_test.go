package pmem

import (
	"fmt"
	"testing"
)

// rangePool returns a pool whose first six allocated lines each hold a
// different cache state: line 0 dirty, line 1 flushed but not fenced,
// line 2 fenced and still resident, lines 3-5 not resident at all. Every
// word of the durable image is distinct from its cached value on the
// volatile lines, so a read from the wrong copy shows. It also returns
// the base address and the pool's counting gate.
func rangePool(t *testing.T) (*Pool, Addr, *countingGate) {
	t.Helper()
	g := &countingGate{points: map[string]int{}}
	p := New(1<<16, g)
	const lines = 6
	base := p.MustAlloc(lines * LineSize)
	for i := 0; i < lines*LineWords; i++ {
		p.Store(1, base+Addr(i*WordSize), uint64(i)+1000)
	}
	p.Persist(1, base, lines*LineSize)
	p.Crash(DropAll) // nothing resident
	for i := 0; i < 3*LineWords; i++ {
		p.Store(1, base+Addr(i*WordSize), uint64(i)+2000)
	}
	p.Flush(1, base+LineSize)
	p.Persist(1, base+2*LineSize, LineSize)
	return p, base, g
}

// TestLoadRangeMatchesWordLoads pins LoadRange to word-by-word Load over
// every cache state a line can be in, for ranges that start and end
// mid-line: the same words, Stats.Loads grown by the words read, and
// one "pmem.load" gate step per touched line.
func TestLoadRangeMatchesWordLoads(t *testing.T) {
	p, base, g := rangePool(t)
	const words = 6 * LineWords
	for _, r := range [][2]int{{0, words}, {0, 1}, {3, 5}, {5, 13}, {7, 9}, {8, 16}, {13, 37}, {20, 48}, {47, 48}} {
		start, end := r[0], r[1]
		t.Run(fmt.Sprintf("%d-%d", start, end), func(t *testing.T) {
			a := base + Addr(start*WordSize)
			want := make([]uint64, end-start)
			for i := range want {
				want[i] = p.Load(2, a+Addr(i*WordSize))
			}
			got := make([]uint64, end-start)
			loads, steps := p.StatsOf(1).Loads, g.points["pmem.load"]
			p.LoadRange(1, a, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("word %d: LoadRange read %d, Load %d", start+i, got[i], want[i])
				}
			}
			if d := p.StatsOf(1).Loads - loads; d != uint64(len(got)) {
				t.Fatalf("Stats.Loads grew by %d, want %d", d, len(got))
			}
			lines := (start+len(got)-1)/LineWords - start/LineWords + 1
			if d := g.points["pmem.load"] - steps; d != lines {
				t.Fatalf("%d gate steps, want one per touched line (%d)", d, lines)
			}
		})
	}
}

// TestLoadRangePanicsLikeLoad pins LoadRange's bounds and alignment
// checks to Load's panics: an unaligned start, and a range running off
// the end of the pool, checked before any word is read.
func TestLoadRangePanicsLikeLoad(t *testing.T) {
	p := New(1<<12, nil)
	last := Addr(p.Size() - WordSize)
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	dst := make([]uint64, 2)
	for _, c := range []struct {
		name  string
		rng   func()
		words func()
	}{
		{"unaligned", func() { p.LoadRange(0, rootBytes+3, dst) }, func() { p.Load(0, rootBytes+3) }},
		{"past the end", func() { p.LoadRange(0, last, dst) }, func() { p.Load(0, last+WordSize) }},
		{"out of bounds", func() { p.LoadRange(0, last+WordSize, dst) }, func() { p.Load(0, last+WordSize) }},
	} {
		got, want := panicOf(c.rng), panicOf(c.words)
		if got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: LoadRange panicked with %v, Load with %v", c.name, got, want)
		}
	}
	if s := p.TotalStats(); s.Loads != 0 {
		t.Fatalf("a refused range counted %d loads", s.Loads)
	}
}

// TestDurableRangeMatchesDurableWord pins DurableRange to DurableWord
// over the same cache states — the durable image, whatever the cache
// holds — and to its scrubber contract: no gate steps, no statistics.
func TestDurableRangeMatchesDurableWord(t *testing.T) {
	p, base, g := rangePool(t)
	const words = 6 * LineWords
	steps := func() (n int) {
		for _, v := range g.points {
			n += v
		}
		return n
	}
	stats, before := p.TotalStats(), steps()
	for _, r := range [][2]int{{0, words}, {3, 5}, {5, 13}, {13, 37}, {47, 48}} {
		start, end := r[0], r[1]
		got := make([]uint64, end-start)
		p.DurableRange(base+Addr(start*WordSize), got)
		for i := range got {
			if want := p.DurableWord(base + Addr((start+i)*WordSize)); got[i] != want {
				t.Fatalf("word %d: DurableRange read %d, DurableWord %d", start+i, got[i], want)
			}
		}
	}
	if steps() != before {
		t.Fatalf("DurableRange took gate steps: %v", g.points)
	}
	if s := p.TotalStats(); s != stats {
		t.Fatalf("DurableRange moved the statistics: %v -> %v", stats, s)
	}
}
