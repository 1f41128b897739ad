// Package plog implements the per-process persistent log of the paper
// (Section 4.1.1), in the style of Cohen, Friedman and Larus, "Efficient
// Logging in Non-volatile Memory by Exploiting Coherency Protocols"
// (OOPSLA 2017, reference [12] of the paper): each Append makes a record
// durable with exactly ONE persistent fence.
//
// Instead of the hardware coherency trick of [12] (which Go cannot
// express), torn records are made detectable by a per-record checksum:
// the record's lines are written, all of them are flushed (asynchronous,
// unordered — zero cost in the paper's model), and a single fence makes
// them durable together. If a crash interrupts the append, any subset of
// the record's cache lines may have reached NVM; the checksum fails and
// recovery treats the record as never appended. This preserves the
// property that matters to the paper — one persistent fence per append —
// while being implementable on the simulated NVM.
//
// # Two-tier slots
//
// A record must be able to hold the appender's whole fuzzy window, which
// is bounded only by MAX_PROCESSES (paper Proposition 5.2) — but is a
// handful of operations in any non-adversarial execution. Sizing every
// slot for the worst case makes 64-process logs cost 2.6KB per slot.
// The layout is therefore two-tier: each slot holds up to InlineOps()
// operations inline, and a record whose op count exceeds that budget
// spills its tail into a shared per-log overflow ring at the end of the
// region. The inline part then carries a descriptor {offset, words,
// checksum} for the tail; the record checksum covers the descriptor, so
// the tail is transitively covered — a torn overflow write fails the
// tail checksum and the record is treated as never appended, exactly as
// a torn inline record would be. Both tiers are flushed before the ONE
// fence of the append, so durability and recovery semantics are
// identical to the single-tier layout.
//
// Overflow chunks are claimed from a bump ring; a chunk is reusable once
// no live (non-truncated) record references it. The ring is sized at 1/8
// of the worst case (every slot spilling a full tail), so the region at
// 64 processes shrinks ~4.7x; a burst of deep fuzzy windows beyond that
// budget surfaces as ErrOvfFull (truncate/compact, then retry), never as
// corruption.
//
// Record layout (words), in a fixed-size inline slot:
//
//	[0] seq        monotonically increasing per log, 1-based
//	[1] kind<<32 | field (field: payload words, or total ops for
//	               overflow records)
//	[2] executionIndex
//	[3...] payload:
//	       ops record:      numOps operations, spec.OpWords words each;
//	                        ops[0] is the appender's own operation with
//	                        the given executionIndex, ops[k] is the
//	                        helped operation with index executionIndex-k
//	                        (paper Listing 1).
//	       overflow ops:    InlineOps() operations followed by the tail
//	                        descriptor {ovfOffsetWords, ovfWords,
//	                        ovfChecksum}; the remaining ops live at
//	                        overflow-ring offset ovfOffsetWords.
//	       snapshot record: {regionAddr, regionWords, regionChecksum}
//	[3+payload] checksum over words [0, 3+payload)
//
// Snapshot records implement the memory-reclamation extension of paper
// Section 8: a record points to a separately written state-snapshot
// region; the single fence of the append covers both the region's lines
// and the record's lines.
package plog

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Record kinds.
const (
	KindOps      = 1 // a batch of operations (paper Listing 1)
	KindSnapshot = 2 // an object-state snapshot (paper Section 8)
	// kindOpsOvf is the wire kind of an ops record whose tail spilled
	// into the overflow ring. Decoded Records normalize it to KindOps
	// (with Overflow set), so readers never care about the split.
	kindOpsOvf = 3
	// KindDelta is a delta-chain compaction record (chain base or
	// delta; see chain.go): the same {addr, words, sum} inline payload
	// as a snapshot, pointing at a body whose frame back-references the
	// chain predecessor.
	KindDelta = 4
)

// Header layout (one cache line at the region base). The final word
// checksums the preceding seven, so a corrupted geometry word is caught
// even when it happens to describe a self-consistent layout. headSeq
// and the checksum are adjacent: Truncate rewrites exactly those two
// words in one StoreLine, which the simulated cache evicts all-or-
// nothing, so a crash can never expose a header whose checksum lags
// its head pointer.
const (
	hdrMagic     = 0 // word offsets within the header
	hdrCapacity  = 1
	hdrSlotW     = 2
	hdrMaxOps    = 3
	hdrInlineOps = 4
	hdrOvfWords  = 5
	hdrHeadSeq   = 6
	hdrSum       = 7
	hdrWords     = pmem.LineWords
)

const logMagic = 0x504c4f4721 // "PLOG!"

// DefaultInlineOps is the default per-slot inline op budget of the
// two-tier layout: the common-case fuzzy window (the appender's own op
// plus a few delayed neighbours). Records with more ops spill their
// tail to the overflow ring.
const DefaultInlineOps = 4

// ovfDescWords is the inline overflow descriptor: {offsetWords, words,
// checksum}.
const ovfDescWords = 3

// Errors.
var (
	ErrFull     = errors.New("plog: log full (truncate before appending more)")
	ErrOvfFull  = errors.New("plog: overflow ring full (truncate before appending more)")
	ErrTooMany  = errors.New("plog: too many operations for one record")
	ErrCorrupt  = errors.New("plog: corrupt log header")
	ErrSnapSize = errors.New("plog: snapshot larger than its region")
)

// ovfRef is one live overflow chunk: the record that owns it and the
// claimed span (offset and exact words; reuse rounds the end up to a
// whole line, matching allocation).
type ovfRef struct {
	seq   uint64
	off   int // words from the ring base, line-aligned
	words int // exact tail words
}

// end is the first ring word past the chunk.
func (r ovfRef) end() int { return r.off + alignLineWords(r.words) }

// Log is one process's persistent log inside a pmem.Pool. A Log is owned
// by a single process: Append/Truncate must not be called concurrently
// (per the paper, logs are per-process; recovery reads all of them).
type Log struct {
	pool *pmem.Pool
	pid  int
	base pmem.Addr

	capacity  int // slots
	slotW     int // words per inline slot (line-aligned)
	maxOps    int
	inlineOps int

	// Overflow ring geometry (derived from the header; zero-width when
	// the inline budget covers maxOps).
	ovfBase  pmem.Addr
	ovfWords int

	// Volatile overflow-ring state, rebuilt by Open from the live
	// records: the chunks still referenced, oldest first.
	ovfLive []ovfRef

	nextSeq uint64 // volatile mirrors; durable info is in records + header
	headSeq uint64

	// spills counts ring shortages (Spills; volatile). Atomic: the
	// owning process bumps it while stats pollers (Instance.Pressure
	// serving a server's metrics endpoint) read it from other goroutines.
	spills atomic.Int64

	// Snapshot regions (ping-pong, so the previous snapshot stays intact
	// while the next one is written).
	snapRegion [2]pmem.Addr
	snapCap    [2]int // words
	snapNext   int

	// Delta-chain state (chain.go): the resolved live chain base-first,
	// the seq of its newest record (Truncate must not drop it) and the
	// body-region free list.
	chain     []chainLink
	chainSeq  uint64
	chainPool []chainRegion

	// Encoding scratch, reused across appends (a Log is owned by one
	// process, so appends never overlap): steady-state Append is
	// allocation-free once the buffers reach the record size.
	encBuf []uint64 // Append inline payload
	ovfBuf []uint64 // Append overflow tail
	recBuf []uint64 // appendRecord slot image
}

// normInline resolves an inline-budget request against maxOps: zero
// selects the default, and a budget at or above maxOps degenerates to
// the single-tier layout (everything inline, no overflow ring).
func normInline(maxOps, inlineOps int) int {
	if inlineOps == 0 {
		inlineOps = DefaultInlineOps
	}
	if inlineOps > maxOps {
		inlineOps = maxOps
	}
	return inlineOps
}

// alignLineWords rounds w up to whole cache lines.
func alignLineWords(w int) int {
	return (w + pmem.LineWords - 1) / pmem.LineWords * pmem.LineWords
}

// slotWordsInline returns the unaligned words per inline slot for the
// given geometry.
func slotWordsInline(maxOps, inlineOps int) int {
	var payload int
	if inlineOps >= maxOps {
		payload = maxOps * spec.OpWords
	} else {
		payload = inlineOps*spec.OpWords + ovfDescWords
	}
	if payload < 3 { // snapshot payload
		payload = 3
	}
	return 3 + payload + 1
}

// ovfChunkWords is the worst-case overflow tail of one record
// (line-aligned, so chunks never share a line and a torn line damages
// at most one record).
func ovfChunkWords(maxOps, inlineOps int) int {
	if inlineOps >= maxOps {
		return 0
	}
	return alignLineWords((maxOps - inlineOps) * spec.OpWords)
}

// ovfRegionWords sizes the shared overflow ring: an eighth of the worst
// case (every live slot spilling a full tail), floored at four full
// chunks so tiny logs keep headroom for a burst of deep fuzzy windows.
func ovfRegionWords(capacity, maxOps, inlineOps int) int {
	chunk := ovfChunkWords(maxOps, inlineOps)
	if chunk == 0 {
		return 0
	}
	w := capacity * chunk / 8
	if min := 4 * chunk; w < min {
		w = min
	}
	return alignLineWords(w)
}

// RegionBytes returns the pool bytes needed for a log with the given
// geometry and the default inline budget (header line + capacity inline
// slots + the overflow ring, line-aligned).
func RegionBytes(capacity, maxOps int) int {
	return RegionBytesInline(capacity, maxOps, 0)
}

// RegionBytesInline is RegionBytes for an explicit inline op budget
// (0 = DefaultInlineOps; >= maxOps = single-tier).
func RegionBytesInline(capacity, maxOps, inlineOps int) int {
	inlineOps = normInline(maxOps, inlineOps)
	return RegionBytesRing(capacity, maxOps, inlineOps,
		ovfRegionWords(capacity, maxOps, inlineOps))
}

// RegionBytesRing is RegionBytesInline for an explicit overflow-ring
// budget in words (adaptive ring growth sizes replacement logs with
// it; ringWords below the formula floor is raised to it by
// CreateInlineRing before this is called).
func RegionBytesRing(capacity, maxOps, inlineOps, ringWords int) int {
	inlineOps = normInline(maxOps, inlineOps)
	slotBytes := alignLineWords(slotWordsInline(maxOps, inlineOps)) * pmem.WordSize
	return pmem.LineSize + capacity*slotBytes + ringWords*pmem.WordSize
}

// Create formats a new log for process pid at a freshly allocated region
// of pool and durably writes its header, using the default inline
// budget. capacity is the number of record slots; maxOps bounds
// operations per record (paper: MAX_PROCESSES).
func Create(pool *pmem.Pool, pid, capacity, maxOps int) (*Log, error) {
	return CreateInline(pool, pid, capacity, maxOps, 0)
}

// CreateInline is Create with an explicit inline op budget: records
// with at most inlineOps operations live entirely in their slot, larger
// records spill their tail to the overflow ring. inlineOps 0 selects
// DefaultInlineOps; inlineOps >= maxOps selects the single-tier layout.
func CreateInline(pool *pmem.Pool, pid, capacity, maxOps, inlineOps int) (*Log, error) {
	return CreateInlineRing(pool, pid, capacity, maxOps, inlineOps, 0)
}

// CreateInlineRing is CreateInline with an explicit overflow-ring
// budget in words (0 = the 1/8-worst-case formula). The formula floor
// is also the minimum: a smaller request is raised to it, so a ring
// can be grown but never starved. ringWords is rounded up to whole
// cache lines; it is ignored for single-tier layouts (which have no
// ring). Adaptive ring growth (core) allocates replacement logs
// through this.
func CreateInlineRing(pool *pmem.Pool, pid, capacity, maxOps, inlineOps, ringWords int) (*Log, error) {
	if capacity < 1 || maxOps < 1 || inlineOps < 0 || ringWords < 0 {
		return nil, fmt.Errorf("plog: bad geometry capacity=%d maxOps=%d inlineOps=%d ringWords=%d",
			capacity, maxOps, inlineOps, ringWords)
	}
	inlineOps = normInline(maxOps, inlineOps)
	if floor := ovfRegionWords(capacity, maxOps, inlineOps); ringWords < floor {
		ringWords = floor
	} else if floor == 0 {
		ringWords = 0 // single-tier: no ring, whatever was asked
	} else {
		ringWords = alignLineWords(ringWords)
	}
	base, err := pool.Alloc(RegionBytesRing(capacity, maxOps, inlineOps, ringWords))
	if err != nil {
		return nil, err
	}
	l := &Log{
		pool: pool, pid: pid, base: base,
		capacity: capacity, maxOps: maxOps, inlineOps: inlineOps,
		slotW:   alignLineWords(slotWordsInline(maxOps, inlineOps)),
		nextSeq: 1, headSeq: 0,
	}
	l.ovfWords = ringWords
	l.ovfBase = l.base + pmem.Addr(hdrWords*pmem.WordSize) +
		pmem.Addr(capacity*l.slotW*pmem.WordSize)
	hdr := l.headerImage(0)
	pool.StoreRange(pid, base, hdr[:])
	pool.Persist(pid, base, hdrWords*pmem.WordSize)
	return l, nil
}

// headerImage builds the durable header for the log's geometry with the
// given truncation point, including the trailing checksum.
func (l *Log) headerImage(headSeq uint64) [hdrWords]uint64 {
	var h [hdrWords]uint64
	h[hdrMagic] = logMagic
	h[hdrCapacity] = uint64(l.capacity)
	h[hdrSlotW] = uint64(l.slotW)
	h[hdrMaxOps] = uint64(l.maxOps)
	h[hdrInlineOps] = uint64(l.inlineOps)
	h[hdrOvfWords] = uint64(l.ovfWords)
	h[hdrHeadSeq] = headSeq
	h[hdrSum] = checksum(h[:hdrSum])
	return h
}

// Plausibility bounds on header geometry read from (possibly corrupt)
// NVM, checked before any arithmetic that could overflow or any slot
// address is dereferenced.
const (
	maxPlausibleCapacity = 1 << 31
	maxPlausibleOps      = 1 << 16
)

// Open attaches to an existing log region (after a crash). It walks the
// slots (see Walk), validates records, and positions nextSeq after the
// last record of the valid prefix. The owning pid of the reopened log
// may differ from the pre-crash one (crashed processes are replaced by
// new ones).
//
// Everything Open reads — the base pointer handed in (typically from a
// root slot) and the header geometry — is untrusted: a corrupted image
// must produce ErrCorrupt, never an out-of-bounds panic. The slot width
// and overflow-ring width are recomputed from (capacity, maxOps,
// inlineOps) and must match the stored words exactly, so a corrupted
// geometry cannot frame slots or overflow chunks at attacker-chosen
// addresses.
func Open(pool *pmem.Pool, pid int, base pmem.Addr) (*Log, error) {
	l, _, err := OpenWalk(pool, pid, base)
	return l, err
}

// OpenWalk is Open that also hands over what its walk read, so that
// recovery reads each log once. The Log keeps none of it: a chain
// base's body alone can be megabytes.
func OpenWalk(pool *pmem.Pool, pid int, base pmem.Addr) (*Log, *Walk, error) {
	if !pool.Contains(base, hdrWords*pmem.WordSize) {
		return nil, nil, ErrCorrupt
	}
	var hdr [hdrWords]uint64
	pool.LoadRange(pid, base, hdr[:])
	if hdr[hdrMagic] != logMagic {
		return nil, nil, ErrCorrupt
	}
	if hdr[hdrSum] != checksum(hdr[:hdrSum]) {
		return nil, nil, ErrCorrupt
	}
	if hdr[hdrCapacity] > maxPlausibleCapacity || hdr[hdrMaxOps] > maxPlausibleOps ||
		hdr[hdrInlineOps] > maxPlausibleOps || hdr[hdrSlotW] > maxPlausibleCapacity ||
		hdr[hdrOvfWords] > maxPlausibleCapacity {
		return nil, nil, ErrCorrupt
	}
	l := &Log{
		pool: pool, pid: pid, base: base,
		capacity:  int(hdr[hdrCapacity]),
		slotW:     int(hdr[hdrSlotW]),
		maxOps:    int(hdr[hdrMaxOps]),
		inlineOps: int(hdr[hdrInlineOps]),
		ovfWords:  int(hdr[hdrOvfWords]),
		headSeq:   hdr[hdrHeadSeq],
	}
	if l.capacity < 1 || l.maxOps < 1 || l.inlineOps < 1 || l.inlineOps > l.maxOps {
		return nil, nil, ErrCorrupt
	}
	if l.slotW != alignLineWords(slotWordsInline(l.maxOps, l.inlineOps)) {
		return nil, nil, ErrCorrupt
	}
	// The ring width is a floor-checked budget, not an exact recompute:
	// adaptive growth creates logs with rings above the formula's 1/8
	// worst case (never below, and always whole lines). The header
	// checksum is what protects the stored width against corruption;
	// the bounds here keep even a checksum-colliding forgery inside the
	// allocated region.
	if floor := ovfRegionWords(l.capacity, l.maxOps, l.inlineOps); floor == 0 {
		if l.ovfWords != 0 {
			return nil, nil, ErrCorrupt
		}
	} else if l.ovfWords < floor || l.ovfWords%pmem.LineWords != 0 {
		return nil, nil, ErrCorrupt
	}
	if !pool.Contains(base, RegionBytesRing(l.capacity, l.maxOps, l.inlineOps, l.ovfWords)) {
		return nil, nil, ErrCorrupt
	}
	l.ovfBase = l.base + pmem.Addr(hdrWords*pmem.WordSize) +
		pmem.Addr(l.capacity*l.slotW*pmem.WordSize)
	w := l.startWalk(l.cachedReader())
	l.nextSeq = l.headSeq + 1
	if n := len(w.Live); n > 0 {
		l.nextSeq = w.Live[n-1].Seq + 1
	}
	// Rebuild the volatile overflow-ring state from the live records:
	// their chunks are in use.
	for _, rec := range w.Live {
		if rec.Overflow {
			l.ovfLive = append(l.ovfLive, ovfRef{seq: rec.Seq, off: rec.ovfOff, words: rec.ovfLen})
		}
	}
	// Rebuild the volatile delta-chain state from the newest live
	// KindDelta record, so a recovered log continues its chain instead
	// of forcing a fresh base.
	l.rebuildChain(w.Live)
	return l, w, nil
}

// Base returns the log's region address (stored in the pool root table by
// the construction so recovery can find it).
func (l *Log) Base() pmem.Addr { return l.base }

// Capacity returns the number of record slots.
func (l *Log) Capacity() int { return l.capacity }

// MaxOps returns the per-record operation bound.
func (l *Log) MaxOps() int { return l.maxOps }

// InlineOps returns the per-slot inline op budget; records with more
// operations spill their tail to the overflow ring.
func (l *Log) InlineOps() int { return l.inlineOps }

// OverflowRegion returns the overflow ring's base address and size in
// words (0 words for a single-tier log). Diagnostics and corruption
// tests use it; production code has no reason to.
func (l *Log) OverflowRegion() (pmem.Addr, int) { return l.ovfBase, l.ovfWords }

// RingWords returns the overflow ring budget in words (the adaptive
// sizing reads it to double on growth).
func (l *Log) RingWords() int { return l.ovfWords }

// Spills returns how many ring shortages the log has met over its
// lifetime: Appends refused with ErrOvfFull plus those added with
// AddSpills.
func (l *Log) Spills() int { return int(l.spills.Load()) }

// Len returns the number of live (non-truncated) records.
func (l *Log) Len() int { return int(l.nextSeq - 1 - l.headSeq) }

// NextSeq returns the sequence number the next append will use.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// HeadSeq returns the truncation point (records with seq <= HeadSeq are
// dead).
func (l *Log) HeadSeq() uint64 { return l.headSeq }

// SlotRegion returns the byte address and length of the slot that
// holds sequence number seq — diagnostics and fault-plan targeting
// (tests aim media faults at specific records with it).
func (l *Log) SlotRegion(seq uint64) (pmem.Addr, int) {
	return l.slotAddr(seq), l.slotW * pmem.WordSize
}

func (l *Log) slotAddr(seq uint64) pmem.Addr {
	slot := (seq - 1) % uint64(l.capacity)
	return l.base + pmem.Addr(hdrWords*pmem.WordSize) + pmem.Addr(slot*uint64(l.slotW)*pmem.WordSize)
}

// checksum is a 64-bit FNV-1a-style mix over record words. It only needs
// to make "a subset of this record's lines are stale" astronomically
// unlikely to verify, not to resist adversaries.
func checksum(words []uint64) uint64 { return sumFinal(sumWords(sumSeed, words)) }

// sumSeed, sumWords and sumFinal are checksum in pieces, for a record
// written from several slices: sumWords continues the mix from h, so
// mixing a then b equals mixing a and b concatenated.
const sumSeed = 0xcbf29ce484222325

func sumWords(h uint64, words []uint64) uint64 {
	for _, w := range words {
		h ^= w
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func sumFinal(h uint64) uint64 {
	if h == 0 { // reserve 0 so an all-zero slot can never verify
		return 1
	}
	return h
}

// claimOvf reserves words from the overflow ring for the record about
// to be appended, returning the line-aligned offset. It tries the end
// of the newest live chunk first (the bump pointer: the steady-state
// hit), then the ring base and the position after each live chunk —
// every maximal free gap starts at one of those — so it fails only when
// no gap fits the tail: the ring equivalent of ErrFull.
func (l *Log) claimOvf(words int) (int, bool) {
	n := alignLineWords(words)
	if k := len(l.ovfLive); k > 0 && l.freeRun(l.ovfLive[k-1].end()) >= n {
		return l.ovfLive[k-1].end(), true
	}
	if l.freeRun(0) >= n {
		return 0, true
	}
	for _, r := range l.ovfLive {
		if l.freeRun(r.end()) >= n {
			return r.end(), true
		}
	}
	return 0, false
}

// freeRun returns the free ring words from s up to the next live chunk
// or the ring's end, 0 when a live chunk covers s.
func (l *Log) freeRun(s int) int {
	end := l.ovfWords
	for _, r := range l.ovfLive {
		if r.off <= s && s < r.end() {
			return 0
		}
		if s < r.off && r.off < end {
			end = r.off
		}
	}
	return end - s
}

// Room returns nil when the log can take its next records appends of up
// to MaxOps operations each, whatever their op counts; else ErrFull
// (too few free slots) or ErrOvfFull (too little ring). Only the owner
// appends, so the room lasts until its own appends use it. It reads
// volatile mirrors only: O(1) on a single-tier log. claimOvf places a
// tail at the start of a free run that begins at the ring base or a
// live chunk's end, and a tail of at most a worst-case chunk costs the
// runs at most one whole chunk: the runs' whole chunks surely fit.
func (l *Log) Room(records int) error {
	if l.capacity-l.Len() < records {
		return ErrFull
	}
	if l.ovfWords > 0 && !l.ringRoom(records) {
		return ErrOvfFull
	}
	return nil
}

// ringRoom counts the ring's room for Room, newest chunk first: its end
// is the bump pointer, the usual hit.
func (l *Log) ringRoom(records int) bool {
	chunk, fit := ovfChunkWords(l.maxOps, l.inlineOps), 0
	for i := len(l.ovfLive) - 1; i >= 0 && fit < records; i-- {
		fit += l.freeRun(l.ovfLive[i].end()) / chunk
	}
	return fit >= records || fit+l.freeRun(0)/chunk >= records
}

// AddSpills adds n ring shortages to Spills: one the owner relieved
// before appending (Room's ErrOvfFull), or a replaced log's count.
func (l *Log) AddSpills(n int) { l.spills.Add(int64(n)) }

// Append durably records ops (ops[0] being the appender's own operation
// with the given execution index; ops[k] the helped operation with index
// execIdx-k) using exactly one persistent fence — for inline records and
// for records that spill to the overflow ring alike. It returns the
// record's sequence number.
func (l *Log) Append(ops []spec.Op, execIdx uint64) (uint64, error) {
	if len(ops) == 0 || len(ops) > l.maxOps {
		return 0, ErrTooMany
	}
	payload := l.encBuf[:0]
	if len(ops) <= l.inlineOps {
		for _, op := range ops {
			payload = op.Encode(payload)
		}
		l.encBuf = payload
		return l.appendRecord(KindOps, uint64(len(payload)), execIdx, payload)
	}
	// Two-tier: the tail beyond the inline budget goes to the overflow
	// ring. Claim a chunk, write and flush it (NOT fenced yet), then
	// append the inline record whose single fence covers both tiers.
	if int(l.nextSeq-1-l.headSeq) >= l.capacity {
		return 0, ErrFull
	}
	tail := l.ovfBuf[:0]
	for _, op := range ops[l.inlineOps:] {
		tail = op.Encode(tail)
	}
	l.ovfBuf = tail
	off, ok := l.claimOvf(len(tail))
	if !ok {
		l.spills.Add(1)
		return 0, ErrOvfFull
	}
	addr := l.ovfBase + pmem.Addr(off*pmem.WordSize)
	l.pool.StoreRange(l.pid, addr, tail)
	l.pool.FlushRange(l.pid, addr, len(tail)*pmem.WordSize)
	for _, op := range ops[:l.inlineOps] {
		payload = op.Encode(payload)
	}
	payload = append(payload, uint64(off), uint64(len(tail)), checksum(tail))
	l.encBuf = payload
	seq, err := l.appendRecord(kindOpsOvf, uint64(len(ops)), execIdx, payload)
	if err == nil {
		l.ovfLive = append(l.ovfLive, ovfRef{seq: seq, off: off, words: len(tail)})
	}
	return seq, err
}

// AppendSnapshot durably records a state snapshot taken at execution
// index execIdx (the state reflects operations 1..execIdx). The snapshot
// body is written to a ping-pong region; the record in the log points at
// it. One persistent fence covers both. Returns the record's sequence
// number.
func (l *Log) AppendSnapshot(state []uint64, execIdx uint64) (uint64, error) {
	// Ensure the target region (the one NOT referenced by the previous
	// snapshot) is large enough.
	k := l.snapNext
	if l.snapCap[k] < len(state) {
		need := len(state)
		if need < 64 {
			need = 64
		}
		need *= 2 // headroom to avoid frequent re-allocation
		a, err := l.pool.Alloc(need * pmem.WordSize)
		if err != nil {
			return 0, err
		}
		l.snapRegion[k], l.snapCap[k] = a, need
	}
	region := l.snapRegion[k]
	// Line-batched region write: one gate/lock/stat round per cache line
	// (the region is line-aligned by Alloc).
	l.pool.StoreRange(l.pid, region, state)
	// Flush the region lines now; the record's fence will cover them.
	l.pool.FlushRange(l.pid, region, len(state)*pmem.WordSize)
	payload := []uint64{uint64(region), uint64(len(state)), checksum(state)}
	seq, err := l.appendRecord(KindSnapshot, uint64(len(payload)), execIdx, payload)
	if err == nil {
		l.snapNext = 1 - k
		// A fenced full snapshot supersedes any live delta chain: its
		// body regions become reusable and the next delta cut must
		// start a fresh base.
		l.releaseChain()
		l.chainSeq = 0
	}
	return seq, err
}

// appendRecord writes the inline slot image [seq, kind<<32|field,
// execIdx, payload..., checksum] and makes it durable with THE one
// persistent fence of the append (which also covers any overflow or
// snapshot lines flushed by the caller beforehand).
func (l *Log) appendRecord(kind int, field, execIdx uint64, payload []uint64) (uint64, error) {
	if int(l.nextSeq-1-l.headSeq) >= l.capacity {
		return 0, ErrFull
	}
	seq := l.nextSeq
	words := l.recBuf[:0]
	words = append(words, seq, uint64(kind)<<32|field, execIdx)
	words = append(words, payload...)
	words = append(words, checksum(words))
	l.recBuf = words
	addr := l.slotAddr(seq)
	// Record writes are line-batched: slots are line-aligned, so each
	// StoreLine inside costs one gate check, one shard lock and one stat
	// bump per cache line instead of one per word. Durability is
	// untouched — the lines stay volatile until the flushes below and
	// the single fence that follows.
	l.pool.StoreRange(l.pid, addr, words)
	l.pool.FlushRange(l.pid, addr, len(words)*pmem.WordSize)
	// THE one persistent fence of this append (and, in the universal
	// construction, the one persistent fence of the whole update).
	l.pool.Fence(l.pid)
	l.nextSeq = seq + 1
	return seq, nil
}

// Truncate durably drops all records with seq <= upto (they must exist).
// It costs one persistent fence (the price of reclamation, measured by
// experiment E9). Overflow chunks owned by dropped records become
// reusable.
func (l *Log) Truncate(upto uint64) error {
	if upto < l.headSeq || upto >= l.nextSeq {
		return fmt.Errorf("plog: truncate %d outside live range (%d, %d)", upto, l.headSeq, l.nextSeq-1)
	}
	if len(l.chain) > 0 && upto >= l.chainSeq {
		// Dropping the newest chain record would orphan the whole chain
		// (its base is only reachable through that record's body).
		return fmt.Errorf("plog: truncate %d would orphan the delta chain at seq %d", upto, l.chainSeq)
	}
	if upto == l.headSeq {
		return nil
	}
	l.headSeq = upto
	keep := l.ovfLive[:0]
	for _, r := range l.ovfLive {
		if r.seq > upto {
			keep = append(keep, r)
		}
	}
	l.ovfLive = keep
	// Rewrite headSeq and the header checksum together: they are
	// adjacent words of one line, so the single StoreRange below is one
	// StoreLine — evicted and persisted all-or-nothing.
	img := l.headerImage(upto)
	a := l.base + pmem.Addr(hdrHeadSeq*pmem.WordSize)
	l.pool.StoreRange(l.pid, a, img[hdrHeadSeq:])
	l.pool.Persist(l.pid, a, 2*pmem.WordSize)
	return nil
}

// Record is one validated log record as seen by recovery.
type Record struct {
	Seq     uint64
	Kind    int
	ExecIdx uint64
	// Ops is populated for KindOps records: Ops[0] has index ExecIdx,
	// Ops[k] has index ExecIdx-k.
	Ops []spec.Op
	// State is populated for KindSnapshot records.
	State []uint64
	// Body is populated for KindDelta records: the validated chain body
	// (frame + payload; see chain.go). ChainBase and DeltaPayload
	// decode it.
	Body []uint64
	// Overflow reports that the record's tail lived in the overflow
	// ring (the decoded Ops are complete either way).
	Overflow bool

	ovfOff, ovfLen int       // claimed span, when Overflow
	bodyAddr       pmem.Addr // chain body address, when KindDelta
	// chain and chainErr are the record's chain resolution when Open
	// already made it (the newest live chain record), so ResolveChain
	// does not read the chain's bodies a second time.
	chain    []ChainElem
	chainErr error
}

// ChainBase reports whether a KindDelta record is a chain base (a full
// snapshot) rather than a delta.
func (r *Record) ChainBase() bool {
	return r.Kind == KindDelta && len(r.Body) > cbKind && r.Body[cbKind] == chainBodyBase
}

// DeltaPayload returns the caller payload of a KindDelta record's body
// (the chain frame stripped).
func (r *Record) DeltaPayload() []uint64 {
	if r.Kind != KindDelta || len(r.Body) < cbHdrWords {
		return nil
	}
	return r.Body[cbHdrWords:]
}

// ChainBody returns the record's body region as (address, words) and
// whether the record is a chain record at all — corruption tests aim
// media faults at specific chain bodies with it.
func (r *Record) ChainBody() (pmem.Addr, int, bool) {
	if r.Kind != KindDelta {
		return 0, 0, false
	}
	return r.bodyAddr, len(r.Body), true
}

// OverflowSpan returns the record's overflow chunk as (offset, words)
// within the log's overflow ring, and whether the record spilled at
// all. Corruption tests use it to aim at a specific chunk.
func (r *Record) OverflowSpan() (off, words int, ok bool) {
	return r.ovfOff, r.ovfLen, r.Overflow
}

// SlotStatus classifies what a slot probe found. The distinction that
// matters to salvage and the scrubber: SlotStale slots hold no record
// for the probed sequence number (never written this wrap, or the seq
// word itself was destroyed), while the SlotBad* statuses mean a record
// WITH the probed sequence number is present but fails validation —
// i.e. an append of that very seq was torn by a crash or the fenced
// record was damaged by a media fault afterwards.
type SlotStatus int

const (
	// SlotOK: the record decoded and every checksum verified.
	SlotOK SlotStatus = iota
	// SlotStale: the stored seq differs from the probed one.
	SlotStale
	// SlotBad: right seq, but the inline image is invalid (bad kind or
	// payload geometry, or the record checksum fails).
	SlotBad
	// SlotBadOvf: the inline image verified but the overflow tail it
	// points at fails its descriptor bounds or tail checksum.
	SlotBadOvf
	// SlotBadSnap: a snapshot record verified inline but its state
	// region pointer is out of bounds or the body checksum fails.
	SlotBadSnap
	// SlotBadDelta: a delta-chain record verified inline but its body
	// pointer is out of bounds, the body checksum fails, or the body
	// frame is malformed. (Chain PREDECESSOR damage is not a slot
	// status: it surfaces when the chain is resolved.)
	SlotBadDelta
)

func (s SlotStatus) String() string {
	switch s {
	case SlotOK:
		return "ok"
	case SlotStale:
		return "stale"
	case SlotBad:
		return "bad"
	case SlotBadOvf:
		return "bad-overflow"
	case SlotBadSnap:
		return "bad-snapshot"
	case SlotBadDelta:
		return "bad-delta"
	}
	return "unknown"
}

// rangeReader fills a slice from consecutive pool words. Recovery reads
// through the cache (pool.LoadRange: one gate step, shard lock and copy
// per cache line — after a crash the cache is empty, so that IS the
// durable image); the scrubber reads with pool.DurableRange, bypassing
// the cache entirely, so it sees latent faults that resident lines
// still mask and costs no gate steps, no statistics and no fences — it
// cannot perturb the pfences/op counts the paper bounds. Nothing is
// read a word at a time: a slot takes at most two reads (its first
// line, then the rest of a longer record), and an overflow tail, a
// snapshot body or a chain body one.
type rangeReader struct {
	pool    *pmem.Pool
	pid     int
	durable bool
}

func (r rangeReader) read(a pmem.Addr, dst []uint64) {
	if r.durable {
		r.pool.DurableRange(a, dst)
	} else {
		r.pool.LoadRange(r.pid, a, dst)
	}
}

func (l *Log) cachedReader() rangeReader { return rangeReader{pool: l.pool, pid: l.pid} }

func (l *Log) durableReader() rangeReader { return rangeReader{pool: l.pool, durable: true} }

// probeSlot validates and decodes the record in the slot that seq maps
// to, requiring the stored seq to equal seq exactly, and classifies
// the failure mode otherwise. Every word it consumes — the kind/field
// word, overflow descriptors, snapshot pointers — comes from (possibly
// torn or corrupted) NVM and is validated before use.
func (l *Log) probeSlot(seq uint64, rd rangeReader) (Record, SlotStatus) {
	addr := l.slotAddr(seq)
	// The slot's first line holds the seq and kind words and, for a
	// snapshot or delta record, the whole record; a longer record's
	// remaining lines are read once its geometry has been validated.
	var head [pmem.LineWords]uint64
	rd.read(addr, head[:])
	if head[0] != seq {
		return Record{}, SlotStale
	}
	kn := head[1]
	kind, field := int(kn>>32), int(kn&0xffffffff)
	var plen, nops int
	switch kind {
	case KindOps:
		plen = field
		if plen <= 0 || plen%spec.OpWords != 0 {
			return Record{}, SlotBad
		}
		nops = plen / spec.OpWords
		if nops > l.inlineOps || nops > l.maxOps {
			return Record{}, SlotBad
		}
	case kindOpsOvf:
		nops = field
		if nops <= l.inlineOps || nops > l.maxOps {
			return Record{}, SlotBad
		}
		plen = l.inlineOps*spec.OpWords + ovfDescWords
	case KindSnapshot, KindDelta:
		plen = field
		if plen != 3 {
			return Record{}, SlotBad
		}
	default:
		return Record{}, SlotBad
	}
	if 3+plen+1 > l.slotW {
		return Record{}, SlotBad
	}
	words := make([]uint64, 3+plen+1)
	if n := copy(words, head[:]); n < len(words) {
		rd.read(addr+pmem.Addr(n*pmem.WordSize), words[n:])
	}
	recSum := words[3+plen]
	words = words[:3+plen]
	if recSum != checksum(words) {
		return Record{}, SlotBad
	}
	rec := Record{Seq: seq, Kind: kind, ExecIdx: words[2]}
	switch kind {
	case KindOps:
		for k := 0; k < nops; k++ {
			rec.Ops = append(rec.Ops, spec.DecodeOp(words[3+k*spec.OpWords:]))
		}
	case kindOpsOvf:
		// The descriptor is covered by the record checksum, but its
		// values are still untrusted geometry: the offset must frame a
		// chunk inside the ring and the length is fixed by the op count.
		d := words[3+l.inlineOps*spec.OpWords:]
		off64, olen64, sum := d[0], d[1], d[2]
		wantLen := (nops - l.inlineOps) * spec.OpWords
		if olen64 != uint64(wantLen) || off64 > uint64(l.ovfWords) {
			return Record{}, SlotBadOvf
		}
		off := int(off64)
		if off%pmem.LineWords != 0 || off+wantLen > l.ovfWords {
			return Record{}, SlotBadOvf
		}
		tail := make([]uint64, wantLen)
		rd.read(l.ovfBase+pmem.Addr(off*pmem.WordSize), tail)
		if checksum(tail) != sum {
			return Record{}, SlotBadOvf // torn overflow tail: record never appended
		}
		for k := 0; k < l.inlineOps; k++ {
			rec.Ops = append(rec.Ops, spec.DecodeOp(words[3+k*spec.OpWords:]))
		}
		for k := 0; k < nops-l.inlineOps; k++ {
			rec.Ops = append(rec.Ops, spec.DecodeOp(tail[k*spec.OpWords:]))
		}
		rec.Kind = KindOps
		rec.Overflow = true
		rec.ovfOff, rec.ovfLen = off, wantLen
	case KindSnapshot:
		region, n, sum := pmem.Addr(words[3]), int(words[4]), words[5]
		// The pointer and length come from (possibly torn) NVM:
		// validate them before dereferencing.
		if n < 0 || n > (1<<28) || !l.pool.Contains(region, n*pmem.WordSize) {
			return Record{}, SlotBadSnap
		}
		state := make([]uint64, n)
		rd.read(region, state)
		if checksum(state) != sum {
			return Record{}, SlotBadSnap // torn snapshot body: record never happened
		}
		rec.State = state
	case KindDelta:
		region, n, sum := pmem.Addr(words[3]), int(words[4]), words[5]
		// Same untrusted-pointer discipline as snapshots, plus the chain
		// frame invariants: a valid body kind and an execIdx matching the
		// record's. Predecessor damage is NOT probed here — it surfaces
		// when the chain is resolved.
		if n < cbHdrWords+1 || n > (1<<28) || !l.pool.Contains(region, n*pmem.WordSize) {
			return Record{}, SlotBadDelta
		}
		body := make([]uint64, n)
		rd.read(region, body)
		if checksum(body) != sum {
			return Record{}, SlotBadDelta // torn chain body: record never appended
		}
		if body[cbKind] > chainBodyDelta || body[cbExec] != words[2] {
			return Record{}, SlotBadDelta
		}
		rec.Body = body
		rec.bodyAddr = region
	}
	return rec, SlotOK
}

// Walk is what one walk over a log's slots found, from headSeq+1 on.
// A record can only be torn if it was the last append in flight at a
// crash (appends are sequential and each is fenced before the next), so
// validity is prefix-closed, and the first slot that does not probe OK
// ends the log. Valid records before that end are the live prefix;
// valid records beyond it are orphans. Orphans verified their
// checksums, so their contents are exactly what was appended —
// recovery can use their operations to bridge gaps the damage opened
// (another process may have helped-persist the missing indices).
type Walk struct {
	// Live is the contiguous valid prefix from headSeq+1.
	Live []Record
	// Orphans are valid records found beyond the end.
	Orphans []Record
	// BadSeqs lists the sequence numbers whose slot held a same-seq
	// record that failed validation (status SlotBad/SlotBadOvf/
	// SlotBadSnap/SlotBadDelta), in probe order. Stale slots are not
	// damage.
	BadSeqs []uint64
	// LastValid is the highest sequence number that probed SlotOK
	// (headSeq when none did).
	LastValid uint64

	next  uint64 // the next sequence number to probe
	ended bool   // a slot before next did not probe OK
}

// startWalk walks the log from headSeq+1 through rd (see walk).
func (l *Log) startWalk(rd rangeReader) *Walk {
	w := &Walk{LastValid: l.headSeq, next: l.headSeq + 1}
	l.walk(w, rd)
	return w
}

// walk is the one slot-walk loop: it probes the slots from w.next on,
// up to the last one. A stale end — a first non-OK slot that holds no
// record for its sequence number, which is where an undamaged log's
// appends end — stops it there. A same-seq invalid first slot (a tear
// or damage) does not: only the slots beyond it tell a benign tear from
// orphans. Calling walk again after a stale end resumes past it.
func (l *Log) walk(w *Walk, rd rangeReader) {
	for ; int(w.next-1-l.headSeq) < l.capacity; w.next++ {
		rec, st := l.probeSlot(w.next, rd)
		switch {
		case st == SlotOK:
			if w.ended {
				w.Orphans = append(w.Orphans, rec)
			} else {
				w.Live = append(w.Live, rec)
			}
			w.LastValid = w.next
		case st == SlotStale && !w.ended:
			w.ended = true
			w.next++
			return
		default:
			if st != SlotStale {
				w.BadSeqs = append(w.BadSeqs, w.next)
			}
			w.ended = true
		}
	}
}

// Resume continues a walk Open stopped at a stale end through every
// slot beyond it, adding what it finds there to w; a walk that already
// reached the last slot reads nothing more. A destroyed sequence word
// reads exactly like the end of the log, and only the slots beyond it
// tell the two apart — at the price of probing the never-written tail
// one slot at a time, which salvaging recovery pays and strict recovery
// does not.
func (l *Log) Resume(w *Walk) { l.walk(w, l.cachedReader()) }

// Records returns the live, validated records in sequence order. After a
// crash (Open), this is what survived; on a live log it reflects all
// appends so far.
func (l *Log) Records() []Record { return l.startWalk(l.cachedReader()).Live }

// BenignTear reports whether the damage picture is indistinguishable
// from an ordinary crash mid-append: exactly one invalid same-seq
// record, sitting at the very next sequence number after the last
// valid one, with nothing beyond it. Recovery treats that record as
// never appended (the paper's torn-record rule); anything else is
// media damage.
func (w *Walk) BenignTear() bool {
	return len(w.Orphans) == 0 && len(w.BadSeqs) == 1 && w.BadSeqs[0] == w.LastValid+1
}

// TailTorn reports whether every invalid record sits beyond the last
// valid one with no orphans after — the shape under which lost
// records (if any) can only be the log owner's trailing appends. The
// fault harness uses it to decide whether an oracle mismatch is
// explainable as absorbed tail loss.
func (w *Walk) TailTorn() bool {
	if len(w.BadSeqs) == 0 || len(w.Orphans) != 0 {
		return false
	}
	for _, b := range w.BadSeqs {
		if b <= w.LastValid {
			return false
		}
	}
	return true
}

// Damaged reports any non-benign invalid slot or orphaned record —
// evidence a fenced record was corrupted after the fact.
func (w *Walk) Damaged() bool {
	return len(w.Orphans) > 0 || (len(w.BadSeqs) > 0 && !w.BenignTear())
}

// ScrubResult summarizes one scrubber pass over the log's durable
// image.
type ScrubResult struct {
	HeaderOK    bool // durable header magic, checksum and geometry verify
	SlotsProbed int
	LiveOK      int      // valid records (prefix + orphans)
	BadSlots    []uint64 // seqs of invalid same-seq records (latent faults)
	Orphans     int      // valid records stranded beyond damage
	// BenignTear mirrors Walk.BenignTear for the walk: a single
	// invalid record at the append frontier is what an interrupted
	// append leaves and is not latent corruption.
	BenignTear bool
	// ChainBad reports a delta-chain record (live or orphaned) whose
	// chain did not resolve in the durable image — a back-reference out
	// of bounds or a predecessor body whose checksum no longer matches
	// the reference that pins it. The head record itself probed OK, so
	// this is latent damage only chain resolution can see.
	ChainBad bool
}

// Faulty reports whether the scrub found anything a future recovery
// could stumble on: a damaged header, orphaned records, or invalid
// records that are not explainable as one torn in-flight append.
func (r *ScrubResult) Faulty() bool {
	return !r.HeaderOK || r.ChainBad || r.Orphans > 0 ||
		(len(r.BadSlots) > 0 && !r.BenignTear)
}

// Scrub walks the log's slots, overflow chunks and snapshot regions in
// the DURABLE image (cache bypassed), verifying every checksum — the
// latent-corruption detector. It performs no stores, no flushes and no
// fences, and bumps no gate or statistics counters, so it is invisible
// to the paper's cost accounting; run it from a quiescent moment (or
// accept that a concurrent in-flight append probes as a benign tear).
func (l *Log) Scrub() ScrubResult {
	var res ScrubResult
	res.SlotsProbed = l.capacity
	// Header: recompute the checksum over the durable words and check
	// the geometry against the opened log's.
	var hdr [hdrWords]uint64
	l.pool.DurableRange(l.base, hdr[:])
	res.HeaderOK = hdr[hdrMagic] == logMagic &&
		hdr[hdrSum] == checksum(hdr[:hdrSum]) &&
		int(hdr[hdrCapacity]) == l.capacity &&
		int(hdr[hdrSlotW]) == l.slotW &&
		int(hdr[hdrMaxOps]) == l.maxOps &&
		int(hdr[hdrInlineOps]) == l.inlineOps &&
		int(hdr[hdrOvfWords]) == l.ovfWords
	// The durable headSeq may trail the volatile one only if a Truncate
	// is in flight; on a quiescent log they agree and the walk below
	// covers exactly the live slots, past a stale end too.
	rd := l.durableReader()
	s := l.startWalk(rd)
	l.walk(s, rd)
	res.LiveOK = len(s.Live) + len(s.Orphans)
	res.Orphans = len(s.Orphans)
	res.BadSlots = s.BadSeqs
	res.BenignTear = s.BenignTear()
	// Delta chains: the newest chain record of each group probes OK on
	// its own, but its predecessors are only reachable through body
	// back-references — resolve them against the durable image too.
	for _, recs := range [][]Record{s.Live, s.Orphans} {
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].Kind != KindDelta {
				continue
			}
			if _, _, err := l.resolveLinks(recs[i], rd); err != nil {
				res.ChainBad = true
			}
			break // only the newest chain record per group is live
		}
	}
	return res
}
