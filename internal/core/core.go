// Package core implements ONLL ("Order Now, Linearize Later"), the
// universal construction of the paper (Sections 3–5): given any
// deterministic sequential object, it produces a lock-free, durably
// linearizable — in fact detectably executable — persistent object that
// issues at most ONE persistent fence per update operation and NO
// persistent fences for read-only operations (Theorem 5.1).
//
// An update proceeds in three stages (Section 3.2):
//
//	order     — a descriptor node is appended to the shared transient
//	            execution trace (internal/trace), fixing the operation's
//	            linearization order before anything is persisted;
//	persist   — the operation, together with every preceding operation
//	            still in the fuzzy window (operations not yet guaranteed
//	            durable), is appended to the process's persistent log
//	            (internal/plog) with a single persistent fence; helping
//	            here is what keeps delayed processes from blocking
//	            recovery consistency;
//	linearize — the node's available flag is set, making the operation
//	            visible to readers. The linearization point of the
//	            operation is the earlier of this store and the flag-set
//	            of any later operation (Section 5.2).
//
// A read-only operation walks the trace from the tail to the latest
// available node and computes its value on that prefix; it never writes
// shared memory or NVM and never fences.
//
// Recovery (Listing 5) rebuilds the trace from the persistent logs of
// all processes, yielding exactly the operations linearized before the
// crash, in linearization order (Proposition 5.10), and reports which
// operation ids survived (detectable execution).
//
// The Section 8 extensions are implemented as options: per-process local
// views (reads cost the lag, not the history length), wait-free ordering
// (a helping execution trace), and compaction (snapshot records that
// truncate the logs and cut the trace, bounding memory).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Gate point names emitted by the construction itself (the substrates
// emit their own: pmem.*, trace.*). Deterministic schedules key on them.
const (
	PointOrdered   = "onll.ordered"   // after the order stage
	PointPersisted = "onll.persisted" // after the persist stage (the fence)
	PointReturn    = "op.return"      // just before an operation returns
)

// Root-table layout used to locate the construction after a crash.
const (
	rootMagicSlot  = 0
	rootNProcsSlot = 1
	rootLogBase    = 8 // slots 8..8+n-1 hold per-process log addresses
	rootMagic      = 0x4f4e4c4c0001
)

// Typed error taxonomy of the fault-hardening layer (PR 6). Callers
// match with errors.Is; every error carries context via wrapping.
var (
	// ErrTornRecord: a log record failed validation mid-log (media
	// damage — a genuinely torn append can only sit at the frontier),
	// or persisted operations are stranded beyond the recoverable
	// prefix, which crash-only executions cannot produce (Prop 5.10).
	ErrTornRecord = errors.New("core: torn or media-damaged log record")
	// ErrBadSlotHeader: a per-process log header failed to validate, so
	// the whole log is unreadable.
	ErrBadSlotHeader = errors.New("core: log header unreadable")
	// ErrSnapshotCorrupt: a compaction snapshot that truncated records
	// is itself missing or damaged — the operations it covered are not
	// reconstructible.
	ErrSnapshotCorrupt = errors.New("core: compaction snapshot missing or corrupt")
	// ErrObjectQuarantined: salvage found evidence of data loss; the
	// object refuses updates and typed reads until Recreate.
	ErrObjectQuarantined = errors.New("core: object quarantined (salvage found evidence of loss)")
	// ErrLogPressure: the order stage found the log short of a
	// worst-case record's lines, and the pressure valve's cut (at the
	// caught-up view, then a truncate) failed, or left the log short.
	// Nothing was ordered. A handle without a local view has nothing to
	// cut: a short log refuses its op with plog.ErrFull instead.
	ErrLogPressure = errors.New("core: log pressure not relieved by compaction")
	// ErrRootOverlap: this instance's root-table range [RootBase,
	// RootBase+rootLogBase+NProcs) overlaps a range another live
	// instance already claimed on the same pool. Before the check, the
	// second instance silently clobbered the first one's root slots
	// (magic, NProcs, log pointers) — corruption that only surfaced at
	// the next recovery. Re-claiming the IDENTICAL range is allowed:
	// that is the same logical instance being recovered or recreated on
	// the pool, not a second one (the registry is volatile, so a crash
	// clears it the way a crash kills the processes holding handles).
	ErrRootOverlap = errors.New("core: RootBase range overlaps another instance on this pool")
)

// MaxProcs bounds the number of simulated processes per instance
// (MAX_PROCESSES in the paper). It matches sched.MaxPids so throughput
// experiments can drive the full pid space; the root table reserves one
// log-pointer slot per possible pid.
const MaxProcs = sched.MaxPids

// RootSpan returns the number of root-table slots an instance with
// nprocs processes occupies starting at Config.RootBase: the fixed
// header slots (magic, process count) plus one log pointer per
// process. Multi-instance layouts (several objects, or the shard
// package's partitions) place instance i at RootBase = i*RootSpan(n)
// to tile the table without overlap.
func RootSpan(nprocs int) int { return rootLogBase + nprocs }

// Config parameterizes New and Recover.
type Config struct {
	// NProcs is the number of processes (and per-process logs).
	NProcs int
	// LogCapacity is the number of records each per-process log's
	// region is sized for: one-op records, an eighth of them with room
	// to be worst-case (plog.RegionBytes). Zero selects a default
	// suitable for the test workloads. The order stage admits an op
	// only while a worst-case record and one more line fit, the line a
	// cut's record takes, so a log of capacity 1 admits none.
	//
	// A run of deep fuzzy windows can fill the region before the
	// compaction cadence truncates it. The order stage absorbs that
	// before it inserts (the pressure valve, Handle.cutIfDue): when the
	// log lacks that room, a handle with a local view cuts at its
	// caught-up view and truncates behind it; a handle without one gets
	// plog.ErrFull.
	LogCapacity int
	// LogMaxOps raises the per-record op bound of each per-process log
	// above the default (NProcs, the deepest fuzzy window a single
	// update can owe). Batched entry points (Handle.NewBatch) persist
	// many staged operations plus the helping tail under one record and
	// one fence, so a server sizing its batcher must leave room:
	// MaxBatch <= LogMaxOps - NProcs. The bound holds for every handle,
	// not only the batch's: staged nodes are unavailable, so a concurrent
	// updater's fuzzy window collects them, and that window is at most
	// the batch's staged ops plus one pending op per other process —
	// within the span Stage admits plus NProcs-1, hence <= LogMaxOps
	// while one batch stages at a time (with two, an outgrown append
	// panics). Zero or values below NProcs select NProcs. A record
	// takes only the lines its ops need, but raising the bound grows
	// the worst-case record the region is sized for and the order stage
	// wants room for, so PoolBytes must be computed with the same
	// value.
	LogMaxOps int
	// Gate interposes deterministic scheduling / crash injection; nil
	// means free-running.
	Gate sched.Gate
	// WaitFree selects the wait-free execution trace (Section 8).
	WaitFree bool
	// LocalViews gives each handle a cached state so reads replay only
	// the lag since the handle last looked (Section 8). Compaction
	// requires local views. A read on a handle with a view takes the
	// epoch check first (DESIGN.md §3.5): every linearize stage bumps
	// the trace's publication epoch, and a read whose handle has already
	// observed the current epoch is served straight from the view,
	// without touching the trace; any other read walks the lag. Reads
	// stay fence-free and allocation-free either way.
	LocalViews bool
	// ReadFastPath only implies LocalViews, which carry the epoch check
	// themselves. It stays only until the benchmark PR drops it from
	// bench/config.go.
	ReadFastPath bool
	// CompactEvery, if positive, makes each handle cut every
	// CompactEvery ops it orders (Section 8 memory reclamation;
	// DESIGN.md §3.8, deltacompact.go), in the order stage of the next
	// op (Handle.cutIfDue). A cut appends a chain base (full snapshot)
	// once and then per-cut delta records — object-specific diffs via
	// spec.DeltaEmitter where available, verbatim op replay otherwise —
	// and truncates the log behind them, collapsing back to a fresh base
	// that also cuts the trace when the chain reaches MaxDeltaChain
	// links or the accumulated delta volume rivals the state size.
	CompactEvery int
	// DeltaSnapshots only selects the size-aware cadence
	// (Handle.cutEvery) when CompactEvery is 0, and implies LocalViews.
	// The settings give three behaviours: no compaction, size-aware
	// cadence, and a cut every CompactEvery updates.
	DeltaSnapshots bool
	// MaxDeltaChain caps a delta chain's length in links (base
	// included) before a cut collapses it, bounding both recovery's
	// fold depth and the volatile trace window between trace cuts. Zero
	// selects 8; 1 makes every cut a base that cuts the trace.
	MaxDeltaChain int
	// Salvage selects salvaging recovery. Both modes run one algorithm
	// (Recover): every log contributes its longest valid prefix and the
	// checksummed records stranded beyond damage (helping often bridges
	// the gap), and the result is classified Healthy / Degraded /
	// Quarantined (health.go). Salvage changes two things. It reads
	// every line past a log's stale end, where strict mode stops (the
	// end of an undamaged log; DESIGN.md §3.7). And on evidence of lost
	// operations it returns the instance quarantined, where strict mode
	// (false, the default) fails with that evidence.
	Salvage bool
	// RootBase offsets this instance's root-table slots, letting
	// several instances (independent objects) share one pool. Each
	// instance owns slots [RootBase, RootBase+rootLogBase+NProcs).
	// Callers must keep the ranges disjoint. Default 0.
	RootBase int

	// The Unsafe* options deliberately BREAK the construction for the
	// ablation experiments (E13): they demonstrate that the design
	// decisions the paper derives in Section 3.1 are load-bearing, by
	// letting the durability checker catch the resulting violations.
	// Never enable them outside experiments.

	// UnsafeNoHelping makes updates persist only their own operation,
	// not the fuzzy window. A delayed process then leaves a gap that
	// strands every later persisted operation at recovery.
	UnsafeNoHelping bool
	// UnsafeLinearizeFirst sets the available flag BEFORE the persist
	// stage (the ordering the paper proves impossible for fence-free
	// readers): a reader may then expose an operation that a crash
	// erases.
	UnsafeLinearizeFirst bool
}

func (c *Config) fill() error {
	if c.NProcs < 1 || c.NProcs > MaxProcs {
		return fmt.Errorf("core: NProcs %d out of range [1,%d]", c.NProcs, MaxProcs)
	}
	if c.LogMaxOps < 0 {
		return fmt.Errorf("core: LogMaxOps %d negative", c.LogMaxOps)
	}
	if c.LogMaxOps < c.NProcs {
		c.LogMaxOps = c.NProcs
	}
	if c.RootBase < 0 || c.RootBase+rootLogBase+c.NProcs > pmem.RootSlots {
		return fmt.Errorf("core: RootBase %d leaves no room for %d log roots (table has %d slots)",
			c.RootBase, c.NProcs, pmem.RootSlots)
	}
	if c.MaxDeltaChain < 0 {
		return fmt.Errorf("core: MaxDeltaChain %d negative", c.MaxDeltaChain)
	}
	if c.MaxDeltaChain == 0 {
		c.MaxDeltaChain = 8
	}
	if c.LogCapacity == 0 {
		c.LogCapacity = 1 << 12
	}
	if c.Gate == nil {
		c.Gate = sched.NopGate{}
	}
	if c.CompactEvery > 0 || c.ReadFastPath || c.DeltaSnapshots {
		c.LocalViews = true
	}
	return nil
}

// Instance is one durably linearizable object produced by the universal
// construction. Obtain per-process Handles with Handle; an Instance's
// methods other than Handle are safe for concurrent use.
type Instance struct {
	cfg   Config
	sp    spec.Spec
	pool  *pmem.Pool
	gate  sched.Gate
	tr    trace.Interface
	logs  []*plog.Log
	hands []*Handle

	// health is the recovered health state (health.go); nil means
	// healthy (instances built by New). One atomic load on the update
	// path is the whole hot-path cost.
	health atomic.Pointer[Health]
	// salvBase caches the salvaged-prefix state for Recreate (set only
	// when recovery quarantined the object).
	salvBase *salvageBase

	// Pressure and scrub counters (stats surface; see Pressure and
	// ScrubTotals in health.go).
	valveFires atomic.Uint64
	scrubRuns  atomic.Uint64
	scrubBad   atomic.Uint64

	// Compaction counters (CompactionStats, deltacompact.go).
	cmpBases     atomic.Uint64
	cmpDeltas    atomic.Uint64
	cmpCollapses atomic.Uint64
	cmpSnapWords atomic.Uint64
	cmpFullWords atomic.Uint64

	// cutIdx is the highest index at which compact spliced a base, the
	// bound below which no new walker reaches (Handle.newNode). It is 0
	// whenever a trace is built (see Recreate).
	cutIdx atomic.Uint64
}

// newTrace returns the execution trace cfg selects, rooted at sentinel
// (a recovered or salvaged base) or, when nil, at INITIALIZE.
func newTrace(cfg *Config, sentinel *trace.Node) trace.Interface {
	switch {
	case cfg.WaitFree && sentinel != nil:
		return trace.NewWaitFreeAt(cfg.Gate, cfg.NProcs, sentinel)
	case cfg.WaitFree:
		return trace.NewWaitFree(cfg.Gate, cfg.NProcs)
	case sentinel != nil:
		return trace.NewLockFreeAt(cfg.Gate, sentinel)
	default:
		return trace.NewLockFree(cfg.Gate)
	}
}

// New builds a fresh instance of sp on pool. Setup durably writes the
// root table and log headers; call pool.ResetStats afterwards if you are
// counting steady-state fences.
func New(pool *pmem.Pool, sp spec.Spec, cfg Config) (*Instance, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	in := &Instance{cfg: cfg, sp: sp, pool: pool, gate: cfg.Gate}
	if err := claimRoots(pool, &cfg); err != nil {
		return nil, err
	}
	in.tr = newTrace(&cfg, nil)
	for pid := 0; pid < cfg.NProcs; pid++ {
		l, err := plog.Create(pool, pid, cfg.LogCapacity, cfg.LogMaxOps)
		if err != nil {
			return nil, fmt.Errorf("core: creating log for p%d: %w", pid, err)
		}
		in.logs = append(in.logs, l)
		pool.SetRoot(cfg.RootBase+rootLogBase+pid, uint64(l.Base()))
	}
	pool.SetRoot(cfg.RootBase+rootNProcsSlot, uint64(cfg.NProcs))
	pool.SetRoot(cfg.RootBase+rootMagicSlot, rootMagic)
	in.makeHandles(nil, nil)
	return in, nil
}

// claimRoots registers the instance's root-table range with the pool,
// catching overlapping Config.RootBase partitions at create/recover
// time instead of letting two instances silently clobber each other's
// root slots. Identical re-claims pass (recovery/recreation of the
// same instance); any partial overlap is an ErrRootOverlap.
func claimRoots(pool *pmem.Pool, cfg *Config) error {
	lo := cfg.RootBase
	hi := lo + rootLogBase + cfg.NProcs
	if conflict, ok := pool.ClaimRootRange(lo, hi); !ok {
		return fmt.Errorf("%w: [%d,%d) vs claimed [%d,%d)",
			ErrRootOverlap, lo, hi, conflict[0], conflict[1])
	}
	return nil
}

// makeHandles builds the instance's handles. With local views, every
// view starts at the trace's base: the first takes base, the state
// recovery already restored the base into (nil when there is none),
// and the others restore theirs from the base's words.
func (in *Instance) makeHandles(seqs map[int]uint64, base spec.State) {
	in.hands = make([]*Handle, in.cfg.NProcs)
	for pid := 0; pid < in.cfg.NProcs; pid++ {
		h := &Handle{in: in, pid: pid, seenEpoch: epochNever}
		h.floor.Store(^uint64(0)) // idle: blocks no reclamation
		if seqs != nil {
			h.seq = seqs[pid]
		}
		if in.cfg.LocalViews {
			h.viewSeqs = make([]uint64, in.cfg.NProcs)
			if sen := in.tr.Sentinel(); sen.Kind == trace.KindBase {
				h.view, base = base, nil
				if h.view == nil {
					h.view = in.sp.New()
					if err := h.view.Restore(sen.Snap); err != nil {
						panic(fmt.Sprintf("core: corrupt recovery base: %v", err))
					}
				}
				h.viewIdx = sen.Idx()
				copy(h.viewSeqs, sen.Seqs)
			} else {
				h.view = in.sp.New()
			}
		}
		in.hands[pid] = h
	}
}

// Spec returns the sequential specification the instance implements.
func (in *Instance) Spec() spec.Spec { return in.sp }

// Pool returns the instance's persistent pool.
func (in *Instance) Pool() *pmem.Pool { return in.pool }

// Trace exposes the execution trace for invariant checks and the
// Figure-1 walkthrough; production code has no reason to touch it.
func (in *Instance) Trace() trace.Interface { return in.tr }

// Log returns process pid's persistent log (diagnostics).
func (in *Instance) Log(pid int) *plog.Log { return in.logs[pid] }

// Handle returns the per-process handle for pid. A Handle must only be
// used by one operation at a time (a process executes one operation at a
// time; the fuzzy-window bound of Proposition 5.2 depends on it), and a
// Batch with ops staged is one operation in flight. Overlapping
// operations panic with errBusy (the busy field). Moving a handle to
// another goroutine between operations needs the caller's own
// synchronisation, a lock or a channel, as sharing any Go value does:
// the handle's release orders nothing.
func (in *Instance) Handle(pid int) *Handle {
	if pid < 0 || pid >= in.cfg.NProcs {
		panic(fmt.Sprintf("core: pid %d out of range [0,%d)", pid, in.cfg.NProcs))
	}
	return in.hands[pid]
}

// NProcs returns the configured process count.
func (in *Instance) NProcs() int { return in.cfg.NProcs }

// Handle is process pid's interface to the object.
type Handle struct {
	in  *Instance
	pid int
	seq uint64 // per-process op sequence for unique ids

	// Local view (Section 8): a cached state reflecting the prefix up
	// to viewIdx. Private to the process; reads advance it. viewSeqs
	// tracks, per process, the highest op sequence number applied to
	// the view — compaction persists it so detectability survives the
	// collapse of the prefix into a snapshot.
	view     spec.State
	viewIdx  uint64
	viewSeqs []uint64

	// Read fast path (the epoch check). seenEpoch is the trace
	// publication epoch loaded BEFORE the walk that last caught the
	// view up: while Epoch() still equals it, no operation has been
	// published since, so the view is the latest available prefix and
	// Read serves from it without touching the trace. epochNever marks
	// a view that has not been validated against any epoch yet (fresh
	// or recovered handles), forcing the first read onto the walk.
	seenEpoch uint64

	// Scratch buffers reused across operations (a Handle runs one
	// operation at a time, enforced by busy), keeping steady-state
	// replay allocation-free: fuzzyBuf holds a commit's record and caps
	// out at the log's per-record bound (LogMaxOps; NProcs, the
	// fuzzy-window bound of Proposition 5.2, without batches), nodeBuf
	// at the read lag. deltaOps and deltaBuf are the delta-cut scratch
	// (deltacompact.go).
	fuzzyBuf []spec.Op
	nodeBuf  []*trace.Node
	deltaOps []spec.Op
	deltaBuf []uint64

	// Trace-node pooling (the last alloc/op on the update path). The
	// floor invariant: every walk of the handle's in-flight operation
	// touches only nodes with index >= floor - NProcs, and the floor is
	// published before the operation inserts its node — a base cut
	// above that node severs the segment a delta walk descends, and a
	// handle that observes the cut must already see the floor. enter
	// publishes the lower of viewIdx (replay walks stop there) and the
	// chain head (a delta cut's walk stops there); fuzzy/latest-available
	// walks start at or above the tail and stop at the first available
	// node, which is at or above viewIdx: between operations a view
	// rests only on an available node or a base (or is reset), and an
	// operation that carries it onto its own unavailable nodes (Update,
	// a batch's stages) keeps the handle entered under its first floor
	// until commit sets its last node available. Idle handles publish
	// MaxUint64.
	//
	// The reuse rule: a node whose index is below both the instance's
	// cut index (the newest splice) and walkLimit (min over all
	// published floors, minus NProcs) is dead. No walk that starts after
	// the splice reaches below it, and every walk in flight is covered
	// by its floor. newNode reuses the handle's own nodes by this rule.
	// The same limit guards the base bodies a walk restores views from:
	// a base cut reuses one only once its base is below walkLimit.
	floor      atomic.Uint64
	own        nodeRing // nodes this handle inserted, oldest first
	reuseCut   uint64   // the cut index reuseBelow was computed for
	reuseBelow uint64   // min(reuseCut, walkLimit); 0 once the oldest own node is not below it

	// bases holds the two chain-base bodies the handle's base cuts
	// alternate between (deltacompact.go), allocated at the first cut.
	bases *baseBufs

	sinceCompact int

	// busy is the misuse check: 1 while an operation (or a batch with
	// ops staged) holds the handle. A taker sets it by CAS, so of two
	// overlapping operations exactly one wins and the other panics with
	// errBusy. release clears it with a plain store: the flag only
	// detects misuse, it orders nothing. An operation that follows on
	// another goroutine is already ordered after this one by whatever
	// handed the handle over (the server's readSlot.mu, the batcher's
	// sole ownership of its handle).
	busy uint32

	// Every operation writes its own handle (busy, floor, seq, viewIdx),
	// so two handles must never share a cache line. The pad rounds the
	// struct to a line multiple; handles are allocated one by one, and a
	// line-multiple size lands in a line-multiple allocator size class,
	// so each starts on a line of its own (TestHandlesShareNoCacheLine,
	// DESIGN.md §3.9).
	_ [7]uint64
}

// PID returns the handle's process id.
func (h *Handle) PID() int { return h.pid }

// NextOpID returns the id the handle's next Update will carry. History
// recorders use it to attribute in-flight (crash-interrupted) operations
// that recovery may nevertheless report as linearized.
func (h *Handle) NextOpID() uint64 { return spec.MakeID(h.pid, h.seq+1) }

var errBusy = errors.New("core: handle used by two operations concurrently, or while its batch has ops staged (one process = one operation at a time)")

// take claims the handle for one operation, or panics with errBusy if
// another operation holds it.
//
//onll:hotpath
func (h *Handle) take() {
	if !atomic.CompareAndSwapUint32(&h.busy, 0, 1) { //onll:barrier(a second taker's CAS: one of two overlapping operations panics)
		panic(errBusy)
	}
}

// release frees the handle taken by take. A plain store: see busy.
//
//onll:hotpath
func (h *Handle) release() {
	h.busy = 0 //onll:plainok(the taker's CAS is the check; the release orders nothing, a handoff is ordered by the caller's own synchronisation)
}

func (h *Handle) enter() {
	h.take()
	h.publishFloor()
}

// publishFloor stores the walk floor (see the floor field) BEFORE the
// insert and any trace read: enter's, and cutIfDue's after the cut
// moved the view and the chain head, so newNode's bound for the cut
// index just raised is not computed against the floor from before.
func (h *Handle) publishFloor() {
	f := h.viewIdx
	if l := h.in.logs[h.pid]; l.ChainLen() > 0 && l.ChainHead() < f {
		f = l.ChainHead()
	}
	h.floor.Store(f)
}

func (h *Handle) exit() {
	h.floor.Store(^uint64(0))
	h.release()
}
