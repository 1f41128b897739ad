// Package pmem simulates byte-addressable non-volatile memory with a
// volatile cache in front of it, reproducing the cost model of the paper
// ("The Inherent Cost of Remembering Consistently", SPAA '18, Section 2):
//
//   - Stores are satisfied in a volatile cache; they are NOT durable.
//   - Flush is an asynchronous, unordered cache-line write-back
//     (clflushopt/clwb). Its cost is considered zero, and it does not by
//     itself make data durable.
//   - Fence stalls until all of the calling process's pending write-backs
//     complete. A fence executed while write-backs are pending is a
//     *persistent fence* — the expensive operation whose count the paper
//     bounds. A fence with no pending write-backs is considered free.
//   - On a full-system crash the cache is lost. A line that was flushed
//     but not yet fenced, or dirty but never flushed (an uncontrolled
//     eviction may have written it back), MAY or MAY NOT have reached
//     NVM; a crash Oracle decides, letting tests explore adversarial
//     outcomes deterministically.
//
// This substitutes for real persistent-memory hardware, which Go cannot
// drive (no cache-line flush control); the quantity the paper reasons
// about — persistent fences per operation, per process — is counted
// exactly.
//
// All primitives take the id of the simulated process performing them so
// that statistics are attributed per process (fences are per-CPU on real
// hardware) and so that a sched.Gate can interpose deterministic
// scheduling or crash injection.
//
// Concurrency design: the pool is lock-striped. The volatile cache is a
// dense []cacheLine slice (line index -> slot, no per-line heap
// allocation) guarded by shardCount mutexes keyed on the line index, so
// simulated processes touching disjoint lines — the common case: each
// process appends to its own persistent log — never contend. Pending
// write-back sets are per-pid slices (touched only by that process and
// by Crash); a flushed line's cache slot marks its pending entry, so a
// re-flush finds it in O(1). Statistics are per-pid atomic counters, so
// StatsOf/TotalStats never block memory traffic. Lock order, where two
// kinds are held together, is always pending-before-shard; shard locks
// are ranked by shard index. No pmem lock is held across a gate step.
//
// Line-granular primitives: StoreLine and StoreRange write, FlushRange
// writes back, and LoadRange reads a cache line per gate step, shard
// lock and statistics update. Stats still count words. The range
// primitives check the whole range before touching a line.
// DurableRange is DurableWord over a range, for the scrubber.
package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Geometry of the simulated memory.
const (
	WordSize  = 8                    // bytes per word
	LineWords = 8                    // words per cache line
	LineSize  = WordSize * LineWords // bytes per cache line (64, as on x86)
)

// shardCount stripes the cache locks; consecutive lines map to distinct
// shards so streaming writes spread out. Must be a power of two.
const shardCount = 64

// Addr is a byte address into a Pool. All word accesses must be
// word-aligned.
type Addr uint64

// Line returns the cache-line index containing a.
func (a Addr) Line() uint64 { return uint64(a) / LineSize }

// word returns the word index of a within the pool.
func (a Addr) word() uint64 { return uint64(a) / WordSize }

// Oracle decides, for each cache line whose durability was not guaranteed
// at the moment of a crash (dirty lines, and flushed-but-not-fenced
// lines), whether that line happened to reach NVM. Returning true means
// the line's volatile contents survive the crash.
type Oracle func(line uint64) bool

// Convenient oracles for tests.
var (
	// DropAll: nothing that was not explicitly persisted survives.
	// This is the most adversarial (and most common) choice.
	DropAll Oracle = func(uint64) bool { return false }
	// KeepAll: every write-back raced ahead of the crash.
	KeepAll Oracle = func(uint64) bool { return true }
)

// SeededOracle returns a deterministic pseudo-random oracle: each line
// survives with probability num/den, decided by a hash of (seed, line).
func SeededOracle(seed uint64, num, den uint64) Oracle {
	return func(line uint64) bool {
		x := seed ^ (line * 0x9e3779b97f4a7c15)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x%den < num
	}
}

// Stats counts the primitive operations performed by one process.
type Stats struct {
	Loads   uint64 // word loads
	Stores  uint64 // word stores
	CASes   uint64 // compare-and-swap attempts
	Flushes uint64 // asynchronous line write-backs issued
	// Fences counts fences that found no pending write-backs; the paper
	// treats these as free.
	Fences uint64
	// PersistentFences counts fences executed while write-backs were
	// pending — the expensive operation bounded by the paper.
	PersistentFences uint64
	// LinesPersisted counts cache lines committed to NVM by fences.
	LinesPersisted uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.CASes += other.CASes
	s.Flushes += other.Flushes
	s.Fences += other.Fences
	s.PersistentFences += other.PersistentFences
	s.LinesPersisted += other.LinesPersisted
}

func (s Stats) String() string {
	return fmt.Sprintf("loads=%d stores=%d cas=%d flushes=%d fences=%d pfences=%d lines=%d",
		s.Loads, s.Stores, s.CASes, s.Flushes, s.Fences, s.PersistentFences, s.LinesPersisted)
}

// pidStats is the lock-free per-process accumulator behind Stats,
// padded to a full cache line so adjacent pids' counters never false-
// share (they are incremented on every memory primitive).
type pidStats struct {
	loads, stores, cases, flushes   atomic.Uint64
	fences, pfences, linesPersisted atomic.Uint64
	_                               uint64 // pad to 64 bytes
}

func (s *pidStats) snapshot() Stats {
	return Stats{
		Loads:            s.loads.Load(),
		Stores:           s.stores.Load(),
		CASes:            s.cases.Load(),
		Flushes:          s.flushes.Load(),
		Fences:           s.fences.Load(),
		PersistentFences: s.pfences.Load(),
		LinesPersisted:   s.linesPersisted.Load(),
	}
}

func (s *pidStats) reset() {
	s.loads.Store(0)
	s.stores.Store(0)
	s.cases.Store(0)
	s.flushes.Store(0)
	s.fences.Store(0)
	s.pfences.Store(0)
	s.linesPersisted.Store(0)
}

// cacheLine is the volatile copy of one line, stored inline in the dense
// cache slice (no per-line heap allocation). pendPid and pendSlot mark
// the pid that last pended the line and 1 + its entry index (0: none;
// pidPending.add); they fill the tail padding, so the line stays 72 B.
type cacheLine struct {
	words    [LineWords]uint64
	resident bool // line has a volatile copy (faulted in by a store/CAS)
	dirty    bool
	pendPid  uint8
	pendSlot uint32
}

// pendingEntry is one flushed-but-unfenced line snapshot.
type pendingEntry struct {
	line  uint64
	words [LineWords]uint64
}

// pidPending is one process's pending write-back set. The entries slice
// is reused across fences (a fence or crash empties it to [:0]), so the
// steady-state flush/fence cycle is allocation-free. The mutex exists
// only for Crash/WriteImage (which quiesce all processes); a process's
// own Flush/Fence never contend.
//
//onll:linepadded
type pidPending struct {
	mu      sync.Mutex
	entries []pendingEntry
	_       [4]uint64 // pad to 64 bytes: no false sharing between pids
}

// add records cl's contents as line li's pending snapshot, replacing
// the line's entry if it has one. The line's mark finds the entry in
// O(1) however large the set (a chain base pends thousands of lines).
// A mark is trusted only while its entry still holds li, since fences
// and crashes empty the set without touching marks; when another pid
// holds the mark the set is scanned. Caller holds pp.mu and li's shard.
func (pp *pidPending) add(pid int, li uint64, cl *cacheLine) {
	i := -1
	switch {
	case cl.pendSlot == 0: // not pended since the last crash
	case int(cl.pendPid) == pid:
		if j := int(cl.pendSlot) - 1; j < len(pp.entries) && pp.entries[j].line == li {
			i = j
		}
	default:
		for j := range pp.entries {
			if pp.entries[j].line == li {
				i = j
				break
			}
		}
	}
	if i < 0 {
		i = len(pp.entries)
		pp.entries = append(pp.entries, pendingEntry{line: li})
	}
	pp.entries[i].words = cl.words
	cl.pendPid, cl.pendSlot = uint8(pid), uint32(i+1)
}

// Pool is one simulated NVM device plus the volatile cache in front of
// it. All methods are safe for concurrent use by multiple simulated
// processes. The crash/recovery cycle is: Crash (discard cache, apply
// oracle) and then re-reading the persistent image through fresh loads.
type Pool struct {
	gate sched.Gate

	persistent []uint64    // the durable image, in words (immutable length)
	cache      []cacheLine // dense volatile cache, line index -> slot
	shards     [shardCount]sync.Mutex

	// pending[pid] holds snapshots of the lines pid has flushed since its
	// last fence. A fence by pid commits and clears pid's set.
	pending [sched.MaxPids]pidPending
	stats   [sched.MaxPids]pidStats

	allocMu sync.Mutex
	top     Addr // bump-allocation frontier, guarded by allocMu
	crashes atomic.Uint64

	// Spontaneous-eviction simulation (see eviction.go).
	evict      EvictionPolicy
	evictCount atomic.Uint64
	evictions  atomic.Uint64

	// Root-table claim registry (ClaimRootRange): the half-open slot
	// ranges live constructions have claimed, guarding against two
	// instances silently sharing root slots. Volatile by design — a
	// crash clears it the way it kills the claiming processes.
	rootMu     sync.Mutex
	rootClaims [][2]int
}

// Reserved root area: the first rootCount words of the pool are a root
// table used to locate top-level structures after a crash. 128 slots
// leave room for one log pointer per possible pid (MaxPids = 64, based
// at slot 8 in internal/core) plus the fixed system slots.
const (
	rootCount  = 128
	rootBytes  = rootCount * WordSize
	minPoolLen = rootBytes
)

// RootSlots is the number of root-table slots. Constructions that
// share one pool partition this space (core.Config.RootBase).
const RootSlots = rootCount

// ClaimRootRange registers the half-open root-slot range [lo, hi) for
// a construction being created or recovered on this pool. A range
// identical to an existing claim is accepted silently — that is the
// same logical construction coming back (recovery after an in-process
// crash, recreation after quarantine), not a second one. A PARTIAL
// overlap returns the conflicting claim and ok=false: two distinct
// constructions were about to clobber each other's root slots. The
// registry is volatile; it protects against configuration bugs within
// one process lifetime, not against a concurrent process on the same
// image (the simulated NVM has no cross-process story to violate).
func (p *Pool) ClaimRootRange(lo, hi int) (conflict [2]int, ok bool) {
	p.rootMu.Lock()
	defer p.rootMu.Unlock()
	for _, c := range p.rootClaims {
		if lo == c[0] && hi == c[1] {
			return [2]int{}, true // identical re-claim: same construction
		}
		if lo < c[1] && c[0] < hi {
			return c, false
		}
	}
	p.rootClaims = append(p.rootClaims, [2]int{lo, hi})
	return [2]int{}, true
}

// RootSystemPID is the process id used for pool-management operations
// (root updates during setup); its fence costs are excluded from
// experiment tables by resetting stats after setup.
const RootSystemPID = sched.MaxPids - 1

// New creates a pool of the given size in bytes (rounded up to a whole
// number of cache lines, minimum one line beyond the root table), fully
// zeroed and durable. gate may be nil, in which case a NopGate is used.
func New(size int, gate sched.Gate) *Pool {
	if gate == nil {
		gate = sched.NopGate{}
	}
	if size < minPoolLen+LineSize {
		size = minPoolLen + LineSize
	}
	lines := (size + LineSize - 1) / LineSize
	p := &Pool{
		gate:       gate,
		persistent: make([]uint64, lines*LineWords),
		cache:      make([]cacheLine, lines),
		top:        rootBytes,
	}
	return p
}

// SetGate replaces the pool's gate. Must not be called concurrently with
// memory operations.
func (p *Pool) SetGate(g sched.Gate) {
	if g == nil {
		g = sched.NopGate{}
	}
	p.gate = g
}

// shard returns the mutex striping line li.
func (p *Pool) shard(li uint64) *sync.Mutex {
	return &p.shards[li&(shardCount-1)]
}

func checkPid(pid int) {
	if pid < 0 || pid >= sched.MaxPids {
		panic(fmt.Sprintf("pmem: pid %d out of range [0,%d)", pid, sched.MaxPids))
	}
}

// Size returns the pool size in bytes.
func (p *Pool) Size() int { return len(p.persistent) * WordSize }

// Crashes returns the number of crashes the pool has survived.
func (p *Pool) Crashes() uint64 { return p.crashes.Load() }

// StatsOf returns a copy of the statistics of process pid.
func (p *Pool) StatsOf(pid int) Stats {
	checkPid(pid)
	return p.stats[pid].snapshot()
}

// TotalStats returns the sum of all per-process statistics.
func (p *Pool) TotalStats() Stats {
	var t Stats
	for pid := range p.stats {
		s := p.stats[pid].snapshot()
		t.Add(s)
	}
	return t
}

// ResetStats zeroes all statistics (typically called after setup so that
// experiment tables reflect steady state only).
func (p *Pool) ResetStats() {
	for pid := range p.stats {
		p.stats[pid].reset()
	}
}

func (p *Pool) checkAddr(a Addr) {
	if uint64(a)%WordSize != 0 {
		panic(fmt.Sprintf("pmem: unaligned address %#x", uint64(a)))
	}
	if a.word() >= uint64(len(p.persistent)) {
		panic(fmt.Sprintf("pmem: address %#x out of bounds (pool %d bytes)",
			uint64(a), len(p.persistent)*WordSize))
	}
}

// line returns the volatile copy of line li, faulting it in from the
// persistent image if needed. Caller holds li's shard lock.
func (p *Pool) line(li uint64) *cacheLine {
	cl := &p.cache[li]
	if !cl.resident {
		base := li * LineWords
		copy(cl.words[:], p.persistent[base:base+LineWords])
		cl.resident = true
	}
	return cl
}

// Load reads the word at addr as seen by the running system (cache first).
//
//onll:hotpath
func (p *Pool) Load(pid int, addr Addr) uint64 {
	p.gate.Step(pid, "pmem.load")
	checkPid(pid)
	p.checkAddr(addr)
	p.stats[pid].loads.Add(1)
	li := addr.Line()
	mu := p.shard(li)
	mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
	defer mu.Unlock()
	if cl := &p.cache[li]; cl.resident {
		return cl.words[addr.word()%LineWords]
	}
	return p.persistent[addr.word()]
}

// LoadRange reads len(dst) consecutive words starting at addr into dst,
// as seen by the running system — the read-side twin of StoreRange.
// Each touched cache line costs one gate step ("pmem.load", before the
// line is read), one shard-lock acquisition and one copy, from the
// resident cache line or else from the persistent image; Stats.Loads
// still counts words. The gate therefore interleaves other processes
// between lines, never between words of one line. Recovery's log walk
// reads slots and snapshot bodies through it. Bounds and alignment are
// checked for the whole range before any line is read, with Load's
// panics.
func (p *Pool) LoadRange(pid int, addr Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	checkPid(pid)
	p.checkAddr(addr)
	p.checkAddr(addr + Addr((len(dst)-1)*WordSize))
	for len(dst) > 0 {
		li := addr.Line()
		w := addr.word() % LineWords
		n := min(uint64(len(dst)), LineWords-w)
		p.gate.Step(pid, "pmem.load")
		p.stats[pid].loads.Add(n)
		mu := p.shard(li)
		mu.Lock()
		if cl := &p.cache[li]; cl.resident {
			copy(dst[:n], cl.words[w:w+n])
		} else {
			copy(dst[:n], p.persistent[addr.word():addr.word()+n])
		}
		mu.Unlock()
		addr += Addr(n * WordSize)
		dst = dst[n:]
	}
}

// Store writes the word at addr into the cache (volatile until flushed
// and fenced).
//
//onll:hotpath
func (p *Pool) Store(pid int, addr Addr, val uint64) {
	p.gate.Step(pid, "pmem.store")
	checkPid(pid)
	p.checkAddr(addr)
	p.stats[pid].stores.Add(1)
	li := addr.Line()
	mu := p.shard(li)
	mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
	defer mu.Unlock()
	cl := p.line(li)
	cl.words[addr.word()%LineWords] = val
	cl.dirty = true
	p.maybeEvict(li)
}

// StoreLine writes vals into consecutive words starting at addr, all of
// which must lie within one cache line, for one gate step, one
// shard-lock acquisition and one statistics update — the
// line-granularity write the log layer batches into (Cohen, Friedman
// and Larus, OOPSLA 2017: make durability line-sized, then pay
// coherency costs per line, not per word). The line is dirty in the
// volatile cache until flushed and fenced and the crash oracle rules on
// it exactly as after the equivalent word Stores; `Stats.Stores` still
// counts words. Two granularities deliberately coarsen to the line: the
// gate sees one step per line (so deterministic schedules and crash
// injection interleave between lines, not between words of one line),
// and a spontaneous eviction persists the whole batch, never a prefix
// of it (maybeEvictN keeps the per-word firing rate). Both match the
// model's line-indivisible write-backs.
// LoadRange is the read-side counterpart: recovery reads a line per
// gate step the way the log layer writes one.
//
//onll:hotpath
func (p *Pool) StoreLine(pid int, addr Addr, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	p.gate.Step(pid, "pmem.store")
	checkPid(pid)
	p.checkAddr(addr)
	if addr.word()%LineWords+uint64(len(vals)) > LineWords {
		panic(fmt.Sprintf("pmem: StoreLine of %d words at %#x crosses a line boundary",
			len(vals), uint64(addr)))
	}
	p.storeLine(pid, addr, vals)
}

// storeLine is the per-line body of StoreLine and StoreRange: the
// caller has taken the gate step and checked pid, alignment, bounds and
// that vals lies within addr's line.
//
//onll:hotpath
func (p *Pool) storeLine(pid int, addr Addr, vals []uint64) {
	p.stats[pid].stores.Add(uint64(len(vals)))
	li := addr.Line()
	mu := p.shard(li)
	mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
	cl := p.line(li)
	copy(cl.words[addr.word()%LineWords:], vals)
	cl.dirty = true
	p.maybeEvictN(li, len(vals))
	mu.Unlock()
}

// StoreRange writes vals to consecutive words starting at addr, as one
// StoreLine per touched cache line: one gate step, one lock and one
// stat bump per line instead of per word. Like LoadRange it checks pid,
// alignment and bounds for the whole range before storing any line.
func (p *Pool) StoreRange(pid int, addr Addr, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	checkPid(pid)
	p.checkAddr(addr)
	p.checkAddr(addr + Addr((len(vals)-1)*WordSize))
	for len(vals) > 0 {
		n := min(len(vals), int(LineWords-addr.word()%LineWords))
		p.gate.Step(pid, "pmem.store")
		p.storeLine(pid, addr, vals[:n])
		addr += Addr(n * WordSize)
		vals = vals[n:]
	}
}

// CAS atomically compares the word at addr with old and, if equal, writes
// new. It reports whether the swap happened. Like a hardware CAS it acts
// on the cache: its effect is NOT durable until flushed and fenced. (The
// paper notes NVM itself is written only by simple write-backs; CAS is a
// cache/coherency-level operation.)
//
//onll:hotpath
func (p *Pool) CAS(pid int, addr Addr, old, new uint64) bool {
	p.gate.Step(pid, "pmem.cas")
	checkPid(pid)
	p.checkAddr(addr)
	p.stats[pid].cases.Add(1)
	li := addr.Line()
	mu := p.shard(li)
	mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
	defer mu.Unlock()
	cl := p.line(li)
	w := addr.word() % LineWords
	if cl.words[w] != old {
		return false
	}
	cl.words[w] = new
	cl.dirty = true
	p.maybeEvict(li)
	return true
}

// Flush issues an asynchronous write-back (clwb-style) of the line
// containing addr, on behalf of pid. The line contents are snapshotted at
// flush time; a subsequent Fence by pid commits the snapshot to NVM.
// Flushing a clean line is a no-op beyond being counted.
//
//onll:hotpath
func (p *Pool) Flush(pid int, addr Addr) {
	p.gate.Step(pid, "pmem.flush")
	checkPid(pid)
	p.checkAddr(addr)
	p.flushLine(pid, addr.Line())
}

// flushLine is the per-line body of Flush and FlushRange: the caller
// has taken the gate step and checked pid and bounds. It holds pid's
// pending set and then li's shard, the documented lock order.
//
//onll:hotpath
func (p *Pool) flushLine(pid int, li uint64) {
	p.stats[pid].flushes.Add(1)
	pp := &p.pending[pid]
	pp.mu.Lock() //onll:lockok(per-pid pending write-back set: single-writer in practice, bounded section)
	mu := p.shard(li)
	mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
	// The line remains cached and dirty (later stores may re-dirty it
	// relative to the snapshot); a fence commits the snapshot.
	if cl := &p.cache[li]; cl.resident && cl.dirty {
		pp.add(pid, li, cl)
	}
	mu.Unlock()
	pp.mu.Unlock()
}

// Fence orders pid's outstanding write-backs: every line pid has flushed
// since its last fence becomes durable. If any write-backs were pending
// this is counted as a persistent fence (the expensive case); otherwise
// as a plain fence.
//
//onll:hotpath
func (p *Pool) Fence(pid int) {
	checkPid(pid)
	pp := &p.pending[pid]
	// Peek at whether this will be a persistent fence so the gate point
	// is distinguishable; the final accounting is done under the lock.
	pp.mu.Lock() //onll:lockok(per-pid pending write-back set: single-writer in practice, bounded section)
	persistent := len(pp.entries) > 0
	pp.mu.Unlock()
	if persistent {
		p.gate.Step(pid, "pmem.pfence")
	} else {
		p.gate.Step(pid, "pmem.fence")
	}
	s := &p.stats[pid]
	pp.mu.Lock() //onll:lockok(per-pid pending write-back set: single-writer in practice, bounded section)
	defer pp.mu.Unlock()
	if len(pp.entries) == 0 {
		s.fences.Add(1)
		return
	}
	s.pfences.Add(1)
	for i := range pp.entries {
		e := &pp.entries[i]
		base := e.line * LineWords
		mu := p.shard(e.line)
		mu.Lock() //onll:lockok(striped line-shard lock: bounded section, models line coherency)
		copy(p.persistent[base:base+LineWords], e.words[:])
		// If the cached line still equals the committed snapshot it is
		// now clean; otherwise later stores keep it dirty.
		if cl := &p.cache[e.line]; cl.resident && cl.words == e.words {
			cl.dirty = false
		}
		mu.Unlock()
	}
	s.linesPersisted.Add(uint64(len(pp.entries)))
	pp.entries = pp.entries[:0]
}

// FlushRange issues asynchronous, unordered write-backs for every line
// overlapping [addr, addr+size) WITHOUT fencing. Multi-line structures
// split across tiers (log slots plus their overflow chunks, snapshot
// regions) flush all of their lines this way and then pay for a single
// fence covering the whole batch. Each line is one Flush; pid and bounds
// are checked for the whole range first.
func (p *Pool) FlushRange(pid int, addr Addr, size int) {
	if size <= 0 {
		return
	}
	first := addr.Line()
	last := Addr(uint64(addr) + uint64(size) - 1).Line()
	checkPid(pid)
	p.checkAddr(Addr(first * LineSize))
	p.checkAddr(Addr(last * LineSize))
	for li := first; li <= last; li++ {
		p.gate.Step(pid, "pmem.flush")
		p.flushLine(pid, li)
	}
}

// Persist is the common flush-range-then-fence idiom: it flushes every
// line overlapping [addr, addr+size) and issues one fence. It is exactly
// one persistent fence when the range was dirty.
func (p *Pool) Persist(pid int, addr Addr, size int) {
	if size <= 0 {
		return
	}
	p.FlushRange(pid, addr, size)
	p.Fence(pid)
}

// lockAll quiesces the pool: every pending set, then every shard, in
// rank order (the same pending-before-shard order Fence uses).
func (p *Pool) lockAll() {
	for pid := range p.pending {
		p.pending[pid].mu.Lock()
	}
	for i := range p.shards {
		p.shards[i].Lock()
	}
}

func (p *Pool) unlockAll() {
	for i := range p.shards {
		p.shards[i].Unlock()
	}
	for pid := range p.pending {
		p.pending[pid].mu.Unlock()
	}
}

// Crash simulates a full-system power failure. Every line whose
// durability was guaranteed (committed by a fence) keeps its committed
// value. For every other line with volatile state — flushed-but-unfenced
// snapshots and dirty unflushed lines — the oracle decides whether the
// in-flight value reached NVM. The cache and all pending write-backs are
// then discarded. Statistics survive (they describe the history of the
// simulation, not the machine).
//
// Crash does not terminate simulated processes; callers pair it with
// sched.Controller.KillAll (or a crashing gate) so that no process
// touches the pool mid-crash.
func (p *Pool) Crash(oracle Oracle) {
	if oracle == nil {
		oracle = DropAll
	}
	p.lockAll()
	defer p.unlockAll()
	p.crashes.Add(1)
	// Flushed-but-unfenced snapshots: the write-back was in flight.
	for pid := range p.pending {
		pp := &p.pending[pid]
		for i := range pp.entries {
			e := &pp.entries[i]
			if oracle(e.line) {
				base := e.line * LineWords
				copy(p.persistent[base:base+LineWords], e.words[:])
			}
		}
		pp.entries = pp.entries[:0]
	}
	// Dirty lines never flushed: an uncontrolled eviction may have
	// written them back at any point; the oracle models that too.
	for li := range p.cache {
		cl := &p.cache[li]
		if !cl.resident {
			continue
		}
		if cl.dirty && oracle(uint64(li)) {
			base := li * LineWords
			copy(p.persistent[base:base+LineWords], cl.words[:])
		}
		*cl = cacheLine{}
	}
}

// ErrOutOfMemory is returned by Alloc when the pool is exhausted.
var ErrOutOfMemory = errors.New("pmem: pool exhausted")

// Alloc reserves size bytes, aligned to a cache-line boundary, and
// returns the base address. Allocation metadata is volatile; persistent
// structures must be reachable from the root table to survive crashes.
func (p *Pool) Alloc(size int) (Addr, error) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if size <= 0 {
		return 0, fmt.Errorf("pmem: invalid allocation size %d", size)
	}
	base := (uint64(p.top) + LineSize - 1) / LineSize * LineSize
	end := base + uint64(size)
	if end > uint64(len(p.persistent)*WordSize) {
		return 0, ErrOutOfMemory
	}
	p.top = Addr(end)
	return Addr(base), nil
}

// MustAlloc is Alloc that panics on failure (used during setup).
func (p *Pool) MustAlloc(size int) Addr {
	a, err := p.Alloc(size)
	if err != nil {
		panic(err)
	}
	return a
}

// SetRoot durably stores val in root slot i (0 <= i < 64). Roots are how
// recovery code locates structures: they are persisted immediately (one
// persistent fence, attributed to RootSystemPID).
func (p *Pool) SetRoot(i int, val uint64) {
	if i < 0 || i >= rootCount {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	addr := Addr(i * WordSize)
	p.Store(RootSystemPID, addr, val)
	p.Persist(RootSystemPID, addr, WordSize)
}

// Root reads root slot i (through the cache, like any load).
func (p *Pool) Root(i int) uint64 {
	if i < 0 || i >= rootCount {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	return p.Load(RootSystemPID, Addr(i*WordSize))
}

// Contains reports whether the word-aligned range [addr, addr+size)
// lies inside the pool — recovery code validates untrusted pointers
// read from NVM with it before dereferencing them.
func (p *Pool) Contains(addr Addr, size int) bool {
	if size < 0 || uint64(addr)%WordSize != 0 {
		return false
	}
	end := uint64(addr) + uint64(size)
	return end >= uint64(addr) && end <= uint64(len(p.persistent))*WordSize
}

// DurableWord returns the word at addr as it exists in NVM right now,
// bypassing the cache. This is a test/diagnostic facility ("what would
// recovery see if we crashed here with DropAll"); real programs cannot
// do this.
func (p *Pool) DurableWord(addr Addr) uint64 {
	p.checkAddr(addr)
	li := addr.Line()
	mu := p.shard(li)
	mu.Lock()
	defer mu.Unlock()
	return p.persistent[addr.word()]
}

// DurableRange fills dst with the len(dst) consecutive words starting at
// addr as they exist in NVM right now, bypassing the cache: DurableWord
// over a range, one shard lock per touched line. Like DurableWord it
// takes no gate steps and touches no statistics — the scrubber reads
// through it.
func (p *Pool) DurableRange(addr Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	p.checkAddr(addr)
	p.checkAddr(addr + Addr((len(dst)-1)*WordSize))
	for len(dst) > 0 {
		li := addr.Line()
		n := min(uint64(len(dst)), LineWords-addr.word()%LineWords)
		mu := p.shard(li)
		mu.Lock()
		copy(dst[:n], p.persistent[addr.word():addr.word()+n])
		mu.Unlock()
		addr += Addr(n * WordSize)
		dst = dst[n:]
	}
}

// VolatileLines returns the number of cache lines currently dirty (a
// diagnostic for leak/compaction tests).
func (p *Pool) VolatileLines() int {
	p.lockAll()
	defer p.unlockAll()
	n := 0
	for li := range p.cache {
		if p.cache[li].resident && p.cache[li].dirty {
			n++
		}
	}
	return n
}
