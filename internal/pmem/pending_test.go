package pmem

import (
	"testing"
	"unsafe"
)

// TestPendingSetDedupe pins the pending-set dedupe, which finds a
// line's entry through the mark its cache line carries: compaction
// bases flush thousands of lines under one fence, so the lookup must
// not scan. Re-flushing a line REPLACES its snapshot (the fence
// commits the newest flushed value, not the first), every distinct
// line commits exactly once, and the set drains for reuse — with marks
// left over from the drained set, from another pid or from before a
// crash matching nothing.
func TestPendingSetDedupe(t *testing.T) {
	// The mark lives in cacheLine's tail padding: the dense cache must
	// not grow for it.
	if size := unsafe.Sizeof(cacheLine{}); size != 72 {
		t.Fatalf("cacheLine is %d bytes, want 72", size)
	}
	t.Run("4096-lines", testDedupeManyLines)
	t.Run("shared-line", testDedupeSharedLine)
	t.Run("across-crash", testDedupeAcrossCrash)
}

func testDedupeManyLines(t *testing.T) {
	const lines = 4096
	pool := New(lines*LineSize+1<<16, nil)
	base := pool.MustAlloc(lines * LineSize)
	pid := 0
	at := func(i int) Addr { return base + Addr(i*LineSize) }

	write := func(round uint64) {
		for i := 0; i < lines; i++ {
			pool.Store(pid, at(i), round*1000+uint64(i))
			pool.Flush(pid, at(i))
		}
	}
	// Two rounds before one fence: every line is flushed twice, the
	// second flush finding its entry through the mark. The committed
	// values must be round 2's.
	write(1)
	write(2)
	if got := len(pool.pending[pid].entries); got != lines {
		t.Fatalf("pending set holds %d entries after dedupe, want %d", got, lines)
	}
	st := pool.StatsOf(pid)
	pool.Fence(pid)
	if got := pool.StatsOf(pid).LinesPersisted - st.LinesPersisted; got != lines {
		t.Fatalf("fence persisted %d lines, want %d", got, lines)
	}
	for i := 0; i < lines; i++ {
		if got, want := pool.DurableWord(at(i)), 2000+uint64(i); got != want {
			t.Fatalf("line %d durable word %d, want %d (stale snapshot survived the dedupe)", i, got, want)
		}
	}
	if got := len(pool.pending[pid].entries); got != 0 {
		t.Fatalf("pending set not drained: %d entries", got)
	}

	// Drained for reuse. Line 0's mark still names entry 0, which line
	// 5 now holds: the mark must not match, or line 0 would overwrite
	// line 5's snapshot and never commit.
	pool.Store(pid, at(5), 50)
	pool.Flush(pid, at(5))
	pool.Store(pid, at(0), 7)
	pool.Flush(pid, at(0))
	pool.Store(pid, at(0), 8)
	pool.Flush(pid, at(0))
	if got := len(pool.pending[pid].entries); got != 2 {
		t.Fatalf("dedupe after drain: %d entries, want 2", got)
	}
	pool.Fence(pid)
	if got := pool.DurableWord(at(0)); got != 8 {
		t.Fatalf("line 0 durable word %d, want 8", got)
	}
	if got := pool.DurableWord(at(5)); got != 50 {
		t.Fatalf("line 5 durable word %d, want 50", got)
	}
}

// testDedupeSharedLine has two pids alternately flush one line, each
// with a different number of private lines pended first so the shared
// line sits at a different entry in each set. Every flush finds the
// other pid's mark, so the dedupe falls back to scanning its own set;
// each pid's fence must commit its own newest snapshot of the shared
// line exactly once.
func testDedupeSharedLine(t *testing.T) {
	pool := New(1<<16, nil)
	region := pool.MustAlloc(4 * LineSize)
	shared := region
	private := func(i int) Addr { return region + Addr((1+i)*LineSize) }
	const a, b = 1, 2

	pool.Store(a, private(0), 10)
	pool.Flush(a, private(0))
	pool.Store(b, private(1), 20)
	pool.Flush(b, private(1))
	pool.Store(b, private(2), 21)
	pool.Flush(b, private(2))
	for round := uint64(1); round <= 3; round++ {
		pool.Store(a, shared, 100+round)
		pool.Flush(a, shared)
		pool.Store(b, shared, 200+round)
		pool.Flush(b, shared)
	}
	if got := len(pool.pending[a].entries); got != 2 {
		t.Fatalf("pid %d pends %d entries, want 2", a, got)
	}
	if got := len(pool.pending[b].entries); got != 3 {
		t.Fatalf("pid %d pends %d entries, want 3", b, got)
	}

	fence := func(pid int, lines, want uint64) {
		t.Helper()
		st := pool.StatsOf(pid)
		pool.Fence(pid)
		if got := pool.StatsOf(pid).LinesPersisted - st.LinesPersisted; got != lines {
			t.Fatalf("pid %d fence persisted %d lines, want %d", pid, got, lines)
		}
		if got := pool.DurableWord(shared); got != want {
			t.Fatalf("after pid %d's fence the shared line holds %d, want %d", pid, got, want)
		}
	}
	fence(a, 2, 103)
	fence(b, 3, 203)
	if got := pool.DurableWord(private(2)); got != 21 {
		t.Fatalf("pid %d's private line holds %d, want 21", b, got)
	}
}

// testDedupeAcrossCrash pends lines, crashes with the set full, and
// pends them again in the opposite order: no mark from before the
// crash may match an entry after it.
func testDedupeAcrossCrash(t *testing.T) {
	const lines = 8
	pool := New(1<<16, nil)
	base := pool.MustAlloc(lines * LineSize)
	at := func(i int) Addr { return base + Addr(i*LineSize) }
	pid := 3

	for i := 0; i < lines; i++ {
		pool.Store(pid, at(i), uint64(i))
		pool.Flush(pid, at(i))
	}
	pool.Crash(DropAll)
	for round := uint64(1); round <= 2; round++ {
		for i := lines - 1; i >= 0; i-- {
			pool.Store(pid, at(i), round*100+uint64(i))
			pool.Flush(pid, at(i))
		}
	}
	if got := len(pool.pending[pid].entries); got != lines {
		t.Fatalf("pending set holds %d entries after the crash, want %d", got, lines)
	}
	pool.Fence(pid)
	for i := 0; i < lines; i++ {
		if got, want := pool.DurableWord(at(i)), 200+uint64(i); got != want {
			t.Fatalf("line %d durable word %d, want %d", i, got, want)
		}
	}
}
