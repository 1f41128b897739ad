package pmem

import (
	"maps"
	"sync"
	"testing"
	"time"
)

// countingGate records gate points (pmem tests run free-running
// otherwise; this one just counts, it never blocks).
type countingGate struct {
	mu     sync.Mutex
	points map[string]int
}

func (g *countingGate) Step(pid int, point string) {
	g.mu.Lock()
	g.points[point]++
	g.mu.Unlock()
}

// TestStoreRangeMatchesWordStores writes the same data through word
// Stores and through StoreRange and requires identical cache contents,
// identical durability behaviour, and identical Stores statistics (the
// stat still counts words; only the bump granularity changed).
func TestStoreRangeMatchesWordStores(t *testing.T) {
	vals := make([]uint64, 37) // crosses several lines, ragged tail
	for i := range vals {
		vals[i] = uint64(i)*0x9e3779b9 + 1
	}

	a := New(1<<16, nil)
	b := New(1<<16, nil)
	addrA := a.MustAlloc(len(vals) * WordSize)
	addrB := b.MustAlloc(len(vals) * WordSize)
	for i, v := range vals {
		a.Store(1, addrA+Addr(i*WordSize), v)
	}
	b.StoreRange(1, addrB, vals)

	for i := range vals {
		if got, want := b.Load(1, addrB+Addr(i*WordSize)), a.Load(1, addrA+Addr(i*WordSize)); got != want {
			t.Fatalf("word %d: StoreRange wrote %d, Store wrote %d", i, got, want)
		}
	}
	if sa, sb := a.StatsOf(1).Stores, b.StatsOf(1).Stores; sa != sb {
		t.Fatalf("Stores stat diverged: word stores %d, ranged stores %d", sa, sb)
	}

	// Unflushed ranged stores must be volatile, exactly like word stores.
	b.Crash(DropAll)
	if got := b.DurableWord(addrB); got != 0 {
		t.Fatalf("unfenced StoreRange became durable: %d", got)
	}

	// And flushed+fenced they must all be durable.
	c := New(1<<16, nil)
	addrC := c.MustAlloc(len(vals) * WordSize)
	c.StoreRange(2, addrC, vals)
	c.Persist(2, addrC, len(vals)*WordSize)
	c.Crash(DropAll)
	for i, v := range vals {
		if got := c.DurableWord(addrC + Addr(i*WordSize)); got != v {
			t.Fatalf("word %d lost after persist+crash: got %d want %d", i, got, v)
		}
	}
}

// TestStoreRangeOneGateStepPerLine pins the cost model: a ranged store
// or write-back over n lines must hit the gate (and so the scheduler)
// once per line, not once per word.
func TestStoreRangeOneGateStepPerLine(t *testing.T) {
	g := &countingGate{points: map[string]int{}}
	p := New(1<<16, nil)
	p.SetGate(g)
	addr := p.MustAlloc(4 * LineSize)

	vals := make([]uint64, 3*LineWords) // 3 full aligned lines
	p.StoreRange(1, addr, vals)
	if got := g.points["pmem.store"]; got != 3 {
		t.Fatalf("aligned 3-line StoreRange: %d gate steps, want 3", got)
	}

	// Unaligned start: 2 words in the first line, then one full line,
	// then 1 word — three lines touched.
	delete(g.points, "pmem.store")
	p.StoreRange(1, addr+Addr((LineWords-2)*WordSize), make([]uint64, LineWords+3))
	if got := g.points["pmem.store"]; got != 3 {
		t.Fatalf("ragged 3-line StoreRange: %d gate steps, want 3", got)
	}

	// FlushRange: one "pmem.flush" step per line overlapping the byte
	// range, dirty or not.
	for _, r := range []struct{ off, size, lines int }{
		{0, 3 * LineSize, 3},
		{LineSize - 8, LineWords*WordSize + 3*WordSize, 3},
		{5 * WordSize, 1, 1},
		{0, 4 * LineSize, 4},
	} {
		delete(g.points, "pmem.flush")
		p.FlushRange(1, addr+Addr(r.off), r.size)
		if got := g.points["pmem.flush"]; got != r.lines {
			t.Fatalf("FlushRange(+%d, %d): %d gate steps, want %d", r.off, r.size, got, r.lines)
		}
	}
}

// TestRangePrimitivesCheckFirst pins that StoreRange and FlushRange,
// like LoadRange, check the whole range before touching a line: a range
// running off the end of the pool, or a store at an unaligned address,
// panics with no line stored, dirtied, pended or counted.
func TestRangePrimitivesCheckFirst(t *testing.T) {
	p := New(1<<16, nil)
	tail := Addr(p.Size()) - 2*LineSize // the last two lines of the pool
	const pid = 1
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"StoreRange/out-of-bounds", func() { p.StoreRange(pid, tail, make([]uint64, 3*LineWords)) }},
		{"StoreRange/ragged-out-of-bounds", func() { p.StoreRange(pid, tail+3*WordSize, make([]uint64, 2*LineWords)) }},
		{"StoreRange/unaligned", func() { p.StoreRange(pid, tail+3, make([]uint64, LineWords)) }},
		{"FlushRange/out-of-bounds", func() { p.FlushRange(pid, tail, 3*LineSize) }},
		{"FlushRange/unaligned-out-of-bounds", func() { p.FlushRange(pid, tail+3, 2*LineSize) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Dirty the in-bounds tail so a flush would pend it.
			p.Crash(DropAll)
			p.StoreRange(pid, tail, make([]uint64, 2*LineWords))
			stats, dirty, pending := p.TotalStats(), p.VolatileLines(), len(p.pending[pid].entries)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("no panic")
					}
				}()
				c.op()
			}()
			if got := p.TotalStats(); got != stats {
				t.Fatalf("stats moved before the panic:\n got %v\nwant %v", got, stats)
			}
			if got := p.VolatileLines(); got != dirty {
				t.Fatalf("%d dirty lines after the panic, want %d", got, dirty)
			}
			if got := len(p.pending[pid].entries); got != pending {
				t.Fatalf("%d pending lines after the panic, want %d", got, pending)
			}
		})
	}
}

// lockProbeGate calls VolatileLines — which takes every pending-set and
// shard lock — at each gate step. A primitive that holds any pmem lock
// across a gate step therefore deadlocks against it.
type lockProbeGate struct {
	pool  *Pool
	steps map[string]int // touched only by the probing goroutine
}

func (g *lockProbeGate) Step(pid int, point string) {
	g.pool.VolatileLines()
	g.steps[point]++
}

// TestRangePrimitivesHoldNoLockAtGate pins the gate discipline: no pmem
// lock is held at any gate step of any primitive, ranged or not. A
// deterministic scheduler parks a process inside Step; if it held a
// shard or pending lock there, every other process touching that lock
// would stall behind the schedule.
func TestRangePrimitivesHoldNoLockAtGate(t *testing.T) {
	p := New(1<<16, nil)
	g := &lockProbeGate{pool: p, steps: map[string]int{}}
	p.SetGate(g)
	base := p.MustAlloc(4 * LineSize)
	const pid = 1
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals := make([]uint64, 3*LineWords+2)
		p.StoreRange(pid, base+2*WordSize, vals)
		p.FlushRange(pid, base, 4*LineSize)
		p.Fence(pid)
		p.Fence(pid)
		p.LoadRange(pid, base+WordSize, vals)
		p.StoreLine(pid, base, vals[:2])
		p.Store(pid, base, 1)
		p.CAS(pid, base, 1, 2)
		p.Flush(pid, base)
		p.Load(pid, base)
		p.Persist(pid, base, LineSize)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a primitive held a pmem lock across a gate step (VolatileLines blocked)")
	}
	want := map[string]int{
		"pmem.store": 4 + 1 + 1, "pmem.flush": 4 + 1 + 1, "pmem.pfence": 2,
		"pmem.fence": 1, "pmem.load": 4 + 1, "pmem.cas": 1,
	}
	if !maps.Equal(g.steps, want) {
		t.Fatalf("gate steps %v, want %v", g.steps, want)
	}
}

// TestStoreLineRejectsLineCrossing pins the single-line contract.
func TestStoreLineRejectsLineCrossing(t *testing.T) {
	p := New(1<<16, nil)
	addr := p.MustAlloc(2 * LineSize)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing StoreLine did not panic")
		}
	}()
	p.StoreLine(1, addr+Addr((LineWords-1)*WordSize), []uint64{1, 2})
}
