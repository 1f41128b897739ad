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
// # One region of tagged lines
//
// A record must be able to hold the appender's whole fuzzy window, which
// is bounded only by MAX_PROCESSES (paper Proposition 5.2) — but is a
// handful of operations in any non-adversarial execution. Like [12], the
// log is therefore one region of variable-length records: a record
// takes the cache lines it needs, consecutive and wrapping modulo the
// region. Sequence numbers count lines: a record's seq is the seq of its
// first (head) line, and the next record's head is the line after its
// last. Every line starts with a tag word — a head line carries its own
// seq, a continuation line its seq with the top bit (tagCont) set — and
// the remaining seven words carry the record image:
//
//	[0] seq        the head line's seq
//	[1] kind<<32 | payload words
//	[2] executionIndex
//	[3...] payload:
//	       ops record:      numOps operations, spec.OpWords words each;
//	                        ops[0] is the appender's own operation with
//	                        the given executionIndex, ops[k] is the
//	                        helped operation with index executionIndex-k
//	                        (paper Listing 1).
//	       snapshot record: {regionAddr, regionWords, regionChecksum}
//	[3+payload] checksum over words [0, 3+payload)
//
// so a record of n operations takes ceil((3 + 5n + 1) / 7) lines. The
// one checksum covers the whole image, continuation lines included.
// The tags keep recovery's probe-by-seq model: a walk probes a head at
// a seq, steps past the record's lines to the next head, and, past the
// end of the valid prefix, probes every line; a continuation line never
// reads as a record head (its tag differs from any head seq) and never
// as damage, and a line left from an earlier pass over the region
// carries a smaller seq.
//
// A region is sized for Capacity records, an eighth of them worst-case
// (MaxOps operations) and the rest of one op each; Room promises the
// owner's next appends by counting free lines against the worst case,
// keeping one line for a compaction record.
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

// Record kinds. Kind 3 was the spilled-tail ops record of the retired
// two-tier layout; it is not reused.
const (
	KindOps      = 1 // a batch of operations (paper Listing 1)
	KindSnapshot = 2 // an object-state snapshot (paper Section 8)
	// KindDelta is a delta-chain compaction record (chain base or
	// delta; see chain.go): the same {addr, words, sum} payload as a
	// snapshot, pointing at a body whose frame back-references the
	// chain predecessor.
	KindDelta = 4
)

// Header layout (one cache line at the region base). The final word
// checksums the preceding seven, so a corrupted geometry word is caught
// even when it happens to describe a self-consistent layout. headSeq
// and the checksum are adjacent: Truncate rewrites exactly those two
// words in one StoreLine, which the simulated cache evicts all-or-
// nothing, so a crash can never expose a header whose checksum lags
// its head pointer. Words 4 and 5 are zero.
const (
	hdrMagic    = 0 // word offsets within the header
	hdrCapacity = 1
	hdrLines    = 2
	hdrMaxOps   = 3
	hdrHeadSeq  = 6
	hdrSum      = 7
	hdrWords    = pmem.LineWords
)

// logMagic marks the one-tier layout. legacyMagic marked the two-tier
// layout (inline slots and an overflow ring), which Open refuses with
// ErrLayout.
const (
	logMagic    = 0x504c4f4732 // "PLOG2"
	legacyMagic = 0x504c4f4721 // "PLOG!"
)

// tagCont flags a continuation line's tag; lineData is the record-image
// words a line carries after its tag.
const (
	tagCont  = 1 << 63
	lineData = pmem.LineWords - 1
)

// DefaultInlineOps was the per-slot inline op budget of the retired
// two-tier layout. It means nothing to the log; it stays only while
// the benchmark sizes a probe with it (bench/probes.go).
const DefaultInlineOps = 4

// Errors.
var (
	ErrFull     = errors.New("plog: log full (truncate before appending more)")
	ErrTooMany  = errors.New("plog: too many operations for one record")
	ErrCorrupt  = errors.New("plog: corrupt log header")
	ErrLayout   = errors.New("plog: unsupported log layout")
	ErrSnapSize = errors.New("plog: snapshot larger than its region")
)

// Log is one process's persistent log inside a pmem.Pool. A Log is owned
// by a single process: Append/Truncate must not be called concurrently
// (per the paper, logs are per-process; recovery reads all of them).
type Log struct {
	pool *pmem.Pool
	pid  int
	base pmem.Addr

	capacity int // records the region is sized for
	maxOps   int
	lines    int // region lines after the header
	worst    int // lines of a MaxOps record

	nextSeq uint64 // volatile mirrors; durable info is in records + header
	headSeq uint64

	// heads[h0:h0+hn] are the live records' head seqs, oldest first:
	// Len, and Truncate's whole-record drop. Rebuilt by Open.
	heads  []uint64
	h0, hn int

	// spills counts relieved shortages (Spills; volatile). Atomic: the
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
	encBuf []uint64 // Append payload
	lnBuf  []uint64 // frame's tagged lines
}

// recordLines returns the lines of a record with payload words.
func recordLines(payload int) int { return (3 + payload + 1 + lineData - 1) / lineData }

// regionLines sizes a log: capacity records, an eighth of them (at
// least one) of maxOps operations and the rest of one.
func regionLines(capacity, maxOps int) int {
	one, worst := recordLines(spec.OpWords), recordLines(maxOps*spec.OpWords)
	return capacity*one + (capacity+7)/8*(worst-one)
}

// RegionBytes returns the pool bytes needed for a log with the given
// geometry: the header line and the record lines.
func RegionBytes(capacity, maxOps int) int {
	return (1 + regionLines(capacity, maxOps)) * pmem.LineSize
}

// Create formats a new log for process pid at a freshly allocated region
// of pool and durably writes its header. capacity is the number of
// records the region is sized for (see RegionBytes); maxOps bounds
// operations per record (paper: MAX_PROCESSES).
func Create(pool *pmem.Pool, pid, capacity, maxOps int) (*Log, error) {
	if capacity < 1 || maxOps < 1 || capacity > maxPlausibleCapacity || maxOps > maxPlausibleOps {
		return nil, fmt.Errorf("plog: bad geometry capacity=%d maxOps=%d", capacity, maxOps)
	}
	base, err := pool.Alloc(RegionBytes(capacity, maxOps))
	if err != nil {
		return nil, err
	}
	l := attach(pool, pid, base, capacity, maxOps)
	l.nextSeq = 1
	hdr := l.headerImage(0)
	pool.StoreRange(pid, base, hdr[:])
	pool.Persist(pid, base, hdrWords*pmem.WordSize)
	return l, nil
}

// CreateInline is Create; inlineOps is ignored. It stays only while the
// benchmark calls it (bench/probes.go).
func CreateInline(pool *pmem.Pool, pid, capacity, maxOps, inlineOps int) (*Log, error) {
	return Create(pool, pid, capacity, maxOps)
}

func attach(pool *pmem.Pool, pid int, base pmem.Addr, capacity, maxOps int) *Log {
	return &Log{
		pool: pool, pid: pid, base: base,
		capacity: capacity, maxOps: maxOps,
		lines: regionLines(capacity, maxOps),
		worst: recordLines(maxOps * spec.OpWords),
	}
}

// headerImage builds the durable header for the log's geometry with the
// given truncation point, including the trailing checksum.
func (l *Log) headerImage(headSeq uint64) [hdrWords]uint64 {
	var h [hdrWords]uint64
	h[hdrMagic] = logMagic
	h[hdrCapacity] = uint64(l.capacity)
	h[hdrLines] = uint64(l.lines)
	h[hdrMaxOps] = uint64(l.maxOps)
	h[hdrHeadSeq] = headSeq
	h[hdrSum] = checksum(h[:hdrSum])
	return h
}

// Plausibility bounds on header geometry read from (possibly corrupt)
// NVM, checked before any arithmetic that could overflow or any line
// address is dereferenced.
const (
	maxPlausibleCapacity = 1 << 31
	maxPlausibleOps      = 1 << 16
)

// Open attaches to an existing log region (after a crash). It walks the
// records (see Walk), validates them, and positions nextSeq after the
// last record of the valid prefix. The owning pid of the reopened log
// may differ from the pre-crash one (crashed processes are replaced by
// new ones).
//
// Everything Open reads — the base pointer handed in (typically from a
// root slot) and the header geometry — is untrusted: a corrupted image
// must produce ErrCorrupt, never an out-of-bounds panic. The region's
// line count is recomputed from (capacity, maxOps) and must match the
// stored word exactly. A header of the retired two-tier layout yields
// ErrLayout.
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
	if hdr[hdrSum] != checksum(hdr[:hdrSum]) {
		return nil, nil, ErrCorrupt
	}
	if hdr[hdrMagic] == legacyMagic {
		return nil, nil, ErrLayout
	}
	if hdr[hdrMagic] != logMagic {
		return nil, nil, ErrCorrupt
	}
	capacity, maxOps := hdr[hdrCapacity], hdr[hdrMaxOps]
	if capacity < 1 || capacity > maxPlausibleCapacity || maxOps < 1 || maxOps > maxPlausibleOps {
		return nil, nil, ErrCorrupt
	}
	l := attach(pool, pid, base, int(capacity), int(maxOps))
	if hdr[hdrLines] != uint64(l.lines) || !pool.Contains(base, RegionBytes(l.capacity, l.maxOps)) {
		return nil, nil, ErrCorrupt
	}
	l.headSeq = hdr[hdrHeadSeq]
	w := l.startWalk(l.cachedReader())
	l.nextSeq = w.liveEnd
	for _, rec := range w.Live {
		l.pushHead(rec.Seq)
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

// Capacity returns the number of records the region is sized for.
func (l *Log) Capacity() int { return l.capacity }

// MaxOps returns the per-record operation bound.
func (l *Log) MaxOps() int { return l.maxOps }

// Spills returns how many log shortages the owner relieved over the
// log's lifetime (AddSpills).
func (l *Log) Spills() int { return int(l.spills.Load()) }

// AddSpills adds n relieved shortages to Spills.
func (l *Log) AddSpills(n int) { l.spills.Add(int64(n)) }

// Len returns the number of live (non-truncated) records.
func (l *Log) Len() int { return l.hn }

// NextSeq returns the sequence number the next append will use.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// HeadSeq returns the truncation point (records with seq <= HeadSeq are
// dead).
func (l *Log) HeadSeq() uint64 { return l.headSeq }

// LineAddr returns the address of the cache line that holds sequence
// number seq — diagnostics and fault-plan targeting (tests aim media
// faults at specific records and their continuation lines with it).
func (l *Log) LineAddr(seq uint64) pmem.Addr {
	return l.base + pmem.Addr((1+(seq-1)%uint64(l.lines))*pmem.LineSize)
}

// free returns the lines no live record holds.
func (l *Log) free() int { return l.lines - int(l.nextSeq-1-l.headSeq) }

// toEnd returns the lines from seq's line to the region's end.
func (l *Log) toEnd(seq uint64) int { return l.lines - int((seq-1)%uint64(l.lines)) }

// pushHead records a live record head, compacting or growing heads
// when its tail reaches the end (amortized O(1), allocation-free once
// heads fits the log's live records).
func (l *Log) pushHead(seq uint64) {
	if l.h0+l.hn == len(l.heads) {
		if l.hn >= len(l.heads)/2 {
			l.heads = append(l.heads, make([]uint64, len(l.heads)+16)...)
		}
		copy(l.heads, l.heads[l.h0:l.h0+l.hn])
		l.h0 = 0
	}
	l.heads[l.h0+l.hn] = seq
	l.hn++
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
	if h == 0 { // reserve 0 so an all-zero image can never verify
		return 1
	}
	return h
}

// Room returns nil when the log's free lines can take its next records
// appends of up to MaxOps operations each, whatever their op counts,
// and keep one line for a compaction record (a chain record takes one),
// so a log its owner admits ops to can always be cut; else ErrFull.
// Only the owner appends, so the room lasts until its own appends use
// it. O(1): it reads volatile mirrors only.
func (l *Log) Room(records int) error {
	if l.free() < records*l.worst+1 {
		return ErrFull
	}
	return nil
}

// Append durably records ops (ops[0] being the appender's own operation
// with the given execution index; ops[k] the helped operation with index
// execIdx-k) using exactly one persistent fence, and returns the
// record's sequence number.
func (l *Log) Append(ops []spec.Op, execIdx uint64) (uint64, error) {
	if len(ops) == 0 || len(ops) > l.maxOps {
		return 0, ErrTooMany
	}
	payload := l.encBuf[:0]
	for _, op := range ops {
		payload = op.Encode(payload)
	}
	l.encBuf = payload
	return l.appendRecord(KindOps, execIdx, payload)
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
	seq, err := l.appendRecord(KindSnapshot, execIdx, payload)
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

// appendRecord writes a record of kind into the lines from nextSeq on
// and makes them durable with THE one persistent fence of the append
// (which also covers any snapshot or chain-body lines flushed by the
// caller beforehand).
func (l *Log) appendRecord(kind int, execIdx uint64, payload []uint64) (uint64, error) {
	if l.free() < recordLines(len(payload)) {
		return 0, ErrFull
	}
	seq := l.nextSeq
	lines := l.frame(seq, kind, execIdx, payload)
	l.storeLines(seq, lines)
	// THE one persistent fence of this append (and, in the universal
	// construction, the one persistent fence of the whole update).
	l.pool.Fence(l.pid)
	l.nextSeq = seq + uint64(len(lines)/pmem.LineWords)
	l.pushHead(seq)
	return seq, nil
}

// frame returns the tagged lines of the record [seq, kind<<32|
// len(payload), execIdx, payload..., checksum] with head seq, seven
// image words to a line, in scratch the next frame reuses.
func (l *Log) frame(seq uint64, kind int, execIdx uint64, payload []uint64) []uint64 {
	n := recordLines(len(payload))
	if cap(l.lnBuf) < n*pmem.LineWords {
		l.lnBuf = make([]uint64, n*pmem.LineWords)
	}
	lines := l.lnBuf[:n*pmem.LineWords]
	lines[0], lines[1], lines[2], lines[3] = seq, seq, uint64(kind)<<32|uint64(len(payload)), execIdx
	h := sumWords(sumSeed, lines[1:4])
	w := 4 // the next word to fill
	for _, v := range payload {
		if w%pmem.LineWords == 0 {
			lines[w] = (seq + uint64(w/pmem.LineWords)) | tagCont
			w++
		}
		lines[w] = v
		w++
	}
	if w%pmem.LineWords == 0 {
		lines[w] = (seq + uint64(w/pmem.LineWords)) | tagCont
		w++
	}
	lines[w] = sumFinal(sumWords(h, payload))
	clear(lines[w+1:])
	return lines
}

// storeLines stores and flushes lines from seq's line on — one gate
// check, shard lock and stat bump per cache line — in at most two runs,
// split where they wrap past the region's last line. They stay volatile
// until a fence.
func (l *Log) storeLines(seq uint64, lines []uint64) {
	a := l.LineAddr(seq)
	end := l.base + pmem.Addr((1+l.lines)*pmem.LineSize) // past the last line
	split := min(len(lines), int(end-a)/pmem.WordSize)
	l.pool.StoreRange(l.pid, a, lines[:split])
	l.pool.FlushRange(l.pid, a, split*pmem.WordSize)
	if split < len(lines) {
		a = l.LineAddr(1)
		l.pool.StoreRange(l.pid, a, lines[split:])
		l.pool.FlushRange(l.pid, a, (len(lines)-split)*pmem.WordSize)
	}
}

// Truncate durably drops every record whose seq is <= upto, whole (upto
// must be a live seq or HeadSeq). It costs one persistent fence (the
// price of reclamation, measured by experiment E9). The durable head
// moves to the line before the oldest record kept, so every line of a
// dropped record becomes free.
func (l *Log) Truncate(upto uint64) error {
	if upto < l.headSeq || upto >= l.nextSeq {
		return fmt.Errorf("plog: truncate %d outside live range (%d, %d)", upto, l.headSeq, l.nextSeq-1)
	}
	if len(l.chain) > 0 && upto >= l.chainSeq {
		// Dropping the newest chain record would orphan the whole chain
		// (its base is only reachable through that record's body).
		return fmt.Errorf("plog: truncate %d would orphan the delta chain at seq %d", upto, l.chainSeq)
	}
	for l.hn > 0 && l.heads[l.h0] <= upto {
		l.h0++
		l.hn--
	}
	head := l.nextSeq - 1
	if l.hn > 0 {
		head = l.heads[l.h0] - 1
	}
	if head == l.headSeq {
		return nil
	}
	l.headSeq = head
	// Rewrite headSeq and the header checksum together: they are
	// adjacent words of one line, so the single StoreRange below is one
	// StoreLine — evicted and persisted all-or-nothing.
	img := l.headerImage(head)
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

	bodyAddr pmem.Addr // chain body address, when KindDelta
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

// SlotStatus classifies what a probe at a seq found. The distinction
// that matters to salvage and the scrubber: SlotStale means the line
// holds no record head for the probed sequence number (never written
// this pass over the region, a continuation line, or the head tag
// itself was destroyed), while the SlotBad* statuses mean a record
// head WITH the probed sequence number is present but the record fails
// validation — i.e. an append of that very seq was torn by a crash or
// the fenced record was damaged by a media fault afterwards.
type SlotStatus int

const (
	// SlotOK: the record decoded and every checksum verified.
	SlotOK SlotStatus = iota
	// SlotStale: the line's tag is not the probed seq.
	SlotStale
	// SlotBad: right head tag, but the record is invalid (bad kind or
	// payload geometry, a continuation line with a wrong tag, or the
	// record checksum fails).
	SlotBad
	// SlotBadSnap: a snapshot record verified but its state region
	// pointer is out of bounds or the body checksum fails.
	SlotBadSnap
	// SlotBadDelta: a delta-chain record verified but its body pointer
	// is out of bounds, the body checksum fails, or the body frame is
	// malformed. (Chain PREDECESSOR damage is not a slot status: it
	// surfaces when the chain is resolved.)
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
// read a word at a time: a record takes at most three reads (its head
// line, then the rest of a longer record in up to two runs), and a
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

// probe validates and decodes the record whose head line holds seq,
// requiring the head tag to equal seq exactly, and classifies the
// failure mode otherwise. On SlotOK it also returns the record's line
// count. Every word it consumes — the kind/field word, continuation
// tags, snapshot pointers — comes from (possibly torn or corrupted) NVM
// and is validated before use.
func (l *Log) probe(seq uint64, rd rangeReader) (Record, SlotStatus, int) {
	// The head line holds the tag and kind words and, for a snapshot or
	// delta record, the whole record; a longer record's remaining lines
	// are read once its geometry has been validated.
	var head [pmem.LineWords]uint64
	rd.read(l.LineAddr(seq), head[:])
	if head[0] != seq {
		return Record{}, SlotStale, 0
	}
	kind, plen := int(head[2]>>32), int(head[2]&0xffffffff)
	switch kind {
	case KindOps:
		if plen <= 0 || plen%spec.OpWords != 0 || plen/spec.OpWords > l.maxOps {
			return Record{}, SlotBad, 0
		}
	case KindSnapshot, KindDelta:
		if plen != 3 {
			return Record{}, SlotBad, 0
		}
	default:
		return Record{}, SlotBad, 0
	}
	n := recordLines(plen)
	img := make([]uint64, n*pmem.LineWords)
	copy(img, head[:])
	if n > 1 {
		first := min(n, l.toEnd(seq))
		rd.read(l.LineAddr(seq+1), img[pmem.LineWords:first*pmem.LineWords])
		if first < n {
			rd.read(l.LineAddr(seq+uint64(first)), img[first*pmem.LineWords:])
		}
	}
	// Check the continuation tags, then close the tag gaps: line i's
	// data moves to words [7i, 7i+7), never past a line still unread.
	for i := 0; i < n; i++ {
		if i > 0 && img[i*pmem.LineWords] != (seq+uint64(i))|tagCont {
			return Record{}, SlotBad, 0
		}
		copy(img[i*lineData:], img[i*pmem.LineWords+1:(i+1)*pmem.LineWords])
	}
	words := img[:3+plen]
	if words[0] != seq || img[3+plen] != checksum(words) {
		return Record{}, SlotBad, 0
	}
	rec := Record{Seq: seq, Kind: kind, ExecIdx: words[2]}
	switch kind {
	case KindOps:
		for k := 0; k < plen/spec.OpWords; k++ {
			rec.Ops = append(rec.Ops, spec.DecodeOp(words[3+k*spec.OpWords:]))
		}
	case KindSnapshot:
		region, n, sum := pmem.Addr(words[3]), int(words[4]), words[5]
		// The pointer and length come from (possibly torn) NVM:
		// validate them before dereferencing.
		if n < 0 || n > (1<<28) || !l.pool.Contains(region, n*pmem.WordSize) {
			return Record{}, SlotBadSnap, 0
		}
		state := make([]uint64, n)
		rd.read(region, state)
		if checksum(state) != sum {
			return Record{}, SlotBadSnap, 0 // torn snapshot body: record never happened
		}
		rec.State = state
	case KindDelta:
		region, n, sum := pmem.Addr(words[3]), int(words[4]), words[5]
		// Same untrusted-pointer discipline as snapshots, plus the chain
		// frame invariants: a valid body kind and an execIdx matching the
		// record's. Predecessor damage is NOT probed here — it surfaces
		// when the chain is resolved.
		if n < cbHdrWords+1 || n > (1<<28) || !l.pool.Contains(region, n*pmem.WordSize) {
			return Record{}, SlotBadDelta, 0
		}
		body := make([]uint64, n)
		rd.read(region, body)
		if checksum(body) != sum {
			return Record{}, SlotBadDelta, 0 // torn chain body: record never appended
		}
		if body[cbKind] > chainBodyDelta || body[cbExec] != words[2] {
			return Record{}, SlotBadDelta, 0
		}
		rec.Body = body
		rec.bodyAddr = region
	}
	return rec, SlotOK, n
}

// Walk is what one walk over a log found, from headSeq+1 on. A record
// can only be torn if it was the last append in flight at a crash
// (appends are sequential and each is fenced before the next), so
// validity is prefix-closed, and the first head that does not probe OK
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
	// BadSeqs lists the sequence numbers whose line held a record head
	// with that seq that failed validation (status SlotBad/SlotBadSnap/
	// SlotBadDelta), in probe order. Stale lines are not damage.
	BadSeqs []uint64
	// LastValid is the highest head seq that probed SlotOK (headSeq
	// when none did).
	LastValid uint64

	liveEnd uint64 // the seq after the live prefix: the next append's
	next    uint64 // the next sequence number to probe
	ended   bool   // a head before next did not probe OK
}

// startWalk walks the log from headSeq+1 through rd (see walk).
func (l *Log) startWalk(rd rangeReader) *Walk {
	w := &Walk{LastValid: l.headSeq, liveEnd: l.headSeq + 1, next: l.headSeq + 1}
	l.walk(w, rd)
	return w
}

// walk is the one record-walk loop: it probes from w.next on, up to the
// region's last line, stepping from a valid record to the line after
// it and from anything else to the next line. A stale end — a first
// non-OK probe that finds no record head for its sequence number, which
// is where an undamaged log's appends end — stops it there. A same-seq
// invalid head (a tear or damage) does not: only the lines beyond it
// tell a benign tear from orphans. Calling walk again after a stale end
// resumes past it.
func (l *Log) walk(w *Walk, rd rangeReader) {
	for int(w.next-1-l.headSeq) < l.lines {
		rec, st, n := l.probe(w.next, rd)
		switch {
		case st == SlotOK:
			if w.ended {
				w.Orphans = append(w.Orphans, rec)
			} else {
				w.Live = append(w.Live, rec)
				w.liveEnd = w.next + uint64(n)
			}
			w.LastValid = w.next
			w.next += uint64(n)
			continue
		case st == SlotStale && !w.ended:
			w.ended = true
			w.next++
			return
		case st != SlotStale:
			w.BadSeqs = append(w.BadSeqs, w.next)
		}
		w.ended = true
		w.next++
	}
}

// Resume continues a walk Open stopped at a stale end through every
// line beyond it, adding what it finds there to w; a walk that already
// reached the last line reads nothing more. A destroyed head tag reads
// exactly like the end of the log, and only the lines beyond it tell
// the two apart — at the price of probing the never-written tail one
// line at a time, which salvaging recovery pays and strict recovery
// does not.
func (l *Log) Resume(w *Walk) { l.walk(w, l.cachedReader()) }

// Records returns the live, validated records in sequence order. After a
// crash (Open), this is what survived; on a live log it reflects all
// appends so far.
func (l *Log) Records() []Record { return l.startWalk(l.cachedReader()).Live }

// BenignTear reports whether the damage picture is indistinguishable
// from an ordinary crash mid-append: exactly one invalid same-seq
// record, sitting at the head right after the live prefix, with
// nothing beyond it. Recovery treats that record as never appended
// (the paper's torn-record rule); anything else is media damage.
func (w *Walk) BenignTear() bool {
	return len(w.Orphans) == 0 && len(w.BadSeqs) == 1 && w.BadSeqs[0] == w.liveEnd
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

// Damaged reports any non-benign invalid record or orphaned record —
// evidence a fenced record was corrupted after the fact.
func (w *Walk) Damaged() bool {
	return len(w.Orphans) > 0 || (len(w.BadSeqs) > 0 && !w.BenignTear())
}

// ScrubResult summarizes one scrubber pass over the log's durable
// image.
type ScrubResult struct {
	HeaderOK    bool // durable header magic, checksum and geometry verify
	LinesProbed int
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

// Scrub walks the log's records and snapshot regions in the DURABLE
// image (cache bypassed), verifying every checksum — the
// latent-corruption detector. It performs no stores, no flushes and no
// fences, and bumps no gate or statistics counters, so it is invisible
// to the paper's cost accounting; run it from a quiescent moment (or
// accept that a concurrent in-flight append probes as a benign tear).
func (l *Log) Scrub() ScrubResult {
	var res ScrubResult
	res.LinesProbed = l.lines
	// Header: recompute the checksum over the durable words and check
	// the geometry against the opened log's.
	var hdr [hdrWords]uint64
	l.pool.DurableRange(l.base, hdr[:])
	res.HeaderOK = hdr[hdrMagic] == logMagic &&
		hdr[hdrSum] == checksum(hdr[:hdrSum]) &&
		int(hdr[hdrCapacity]) == l.capacity &&
		int(hdr[hdrLines]) == l.lines &&
		int(hdr[hdrMaxOps]) == l.maxOps
	// The durable headSeq may trail the volatile one only if a Truncate
	// is in flight; on a quiescent log they agree and the walk below
	// covers exactly the live lines, past a stale end too.
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
