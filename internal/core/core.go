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
	"sort"
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
	// ErrLogPressure: the persist stage could not place a record even
	// after the full escalation ladder (compaction, view catch-up,
	// ring growth).
	ErrLogPressure = errors.New("core: log pressure not relieved by compaction or ring growth")
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
	// LogCapacity is the number of record slots per per-process log.
	// Zero selects a default suitable for the test workloads.
	LogCapacity int
	// LogInlineOps is the per-slot inline op budget of the two-tier log
	// layout: records assembling at most this many fuzzy-window ops live
	// entirely in their slot, larger records spill their tail to the
	// log's shared overflow ring. Zero selects plog.DefaultInlineOps;
	// values >= NProcs make the logs single-tier (every slot sized for
	// the worst-case window, the pre-two-tier layout).
	//
	// The ring is sized at 1/8 of the worst case, so a sustained run of
	// deep fuzzy windows can exhaust it before the slot ring fills.
	// With LocalViews enabled, Update absorbs that transparently (the
	// compactForSpace pressure valve); without them there is no state
	// to snapshot from and Update fails with plog.ErrOvfFull, a failure
	// the single-tier layout only hit at full slot capacity — workloads
	// that stall processes deeply and cannot enable local views should
	// keep the logs single-tier.
	LogInlineOps int
	// LogMaxOps raises the per-record op bound of each per-process log
	// above the default (NProcs, the deepest fuzzy window a single
	// update can owe). Batched entry points (Handle.NewBatch) persist
	// many staged operations plus the helping tail under one record and
	// one fence, so a server sizing its batcher must leave room:
	// MaxBatch <= LogMaxOps - NProcs. Zero or values below NProcs
	// select NProcs. Raising it does not widen the inline slots — wide
	// records spill their tail to the overflow ring — but it does grow
	// the ring's sizing floor, so PoolBytes must be computed with the
	// same value.
	LogMaxOps int
	// Gate interposes deterministic scheduling / crash injection; nil
	// means free-running.
	Gate sched.Gate
	// WaitFree selects the wait-free execution trace (Section 8).
	WaitFree bool
	// LocalViews gives each handle a cached state so reads replay only
	// the lag since the handle last looked (Section 8). Compaction
	// requires local views.
	LocalViews bool
	// ReadFastPath enables the version-stamped read fast path on top of
	// local views (implied; setting it turns LocalViews on): every
	// linearize stage bumps the trace's publication epoch, and a read
	// whose handle has already observed the current epoch is served
	// straight from the local view, without touching the trace at all —
	// on read-heavy mixes the per-read trace walk disappears whenever no
	// update has landed in between. Any other read walks the lag since
	// the handle last looked (Section 8).
	//
	// Reads stay fence-free and allocation-free; pfences/op is
	// unchanged (updates 1, reads 0). The flat-combining and eager
	// baselines (internal/baselines) deliberately do not implement an
	// equivalent, so E6/E7 keep comparing against the unassisted
	// designs the paper describes.
	ReadFastPath bool
	// CompactEvery, if positive, makes each handle cut every
	// CompactEvery updates (Section 8 memory reclamation; DESIGN.md
	// §3.8, deltacompact.go): a cut appends a chain base (full snapshot)
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
	// Salvage selects salvaging recovery: instead of failing wholesale
	// on the first corrupt structure, Recover keeps the longest valid
	// prefix of every log, harvests checksummed records stranded beyond
	// damage (helping often bridges the gap), and classifies the result
	// into Healthy / Degraded / Quarantined (health.go). Strict mode
	// (false, the default) preserves the original fail-closed behavior.
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
	if c.LogInlineOps < 0 {
		return fmt.Errorf("core: LogInlineOps %d negative", c.LogInlineOps)
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

	// health is the salvage-mode health state (health.go); nil means
	// healthy (instances built by New, or strict recovery). One atomic
	// load on the update path is the whole hot-path cost.
	health atomic.Pointer[Health]
	// salvBase caches the salvaged-prefix state for Recreate (set only
	// when recovery quarantined the object).
	salvBase *salvageBase

	// Pressure and scrub counters (stats surface; see Pressure and
	// ScrubTotals in health.go).
	valveFires atomic.Uint64
	ringGrows  atomic.Uint64
	scrubRuns  atomic.Uint64
	scrubBad   atomic.Uint64

	// Compaction counters (CompactionStats, deltacompact.go).
	cmpBases     atomic.Uint64
	cmpDeltas    atomic.Uint64
	cmpCollapses atomic.Uint64
	cmpSnapWords atomic.Uint64
	cmpFullWords atomic.Uint64
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
		l, err := plog.CreateInline(pool, pid, cfg.LogCapacity, cfg.LogMaxOps, cfg.LogInlineOps)
		if err != nil {
			return nil, fmt.Errorf("core: creating log for p%d: %w", pid, err)
		}
		in.logs = append(in.logs, l)
		pool.SetRoot(cfg.RootBase+rootLogBase+pid, uint64(l.Base()))
	}
	pool.SetRoot(cfg.RootBase+rootNProcsSlot, uint64(cfg.NProcs))
	pool.SetRoot(cfg.RootBase+rootMagicSlot, rootMagic)
	in.makeHandles(nil)
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

func (in *Instance) makeHandles(seqs map[int]uint64) {
	in.hands = make([]*Handle, in.cfg.NProcs)
	for pid := 0; pid < in.cfg.NProcs; pid++ {
		h := &Handle{in: in, pid: pid, seenEpoch: epochNever}
		h.floor.Store(^uint64(0)) // idle: blocks no reclamation
		if seqs != nil {
			h.seq = seqs[pid]
		}
		if in.cfg.LocalViews {
			h.view = in.sp.New()
			h.viewSeqs = make([]uint64, in.cfg.NProcs)
			if base := in.tr.Sentinel(); base.Kind == trace.KindBase {
				if err := h.view.Restore(base.Snap); err != nil {
					panic(fmt.Sprintf("core: corrupt recovery base: %v", err))
				}
				h.viewIdx = base.Idx()
				copy(h.viewSeqs, base.Seqs)
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
// time; the fuzzy-window bound of Proposition 5.2 depends on it).
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

	// Read fast path (Config.ReadFastPath). seenEpoch is the trace
	// publication epoch loaded BEFORE the walk that last caught the
	// view up: while Epoch() still equals it, no operation has been
	// published since, so the view is the latest available prefix and
	// Read serves from it without touching the trace. epochNever marks
	// a view that has not been validated against any epoch yet (fresh
	// or recovered handles), forcing the first read onto the walk.
	seenEpoch uint64

	// Scratch buffers reused across operations (a Handle runs one
	// operation at a time, enforced by busy), keeping steady-state
	// replay allocation-free: fuzzyBuf caps out at the fuzzy-window
	// bound (Proposition 5.2), nodeBuf at the read lag. deltaOps and
	// deltaBuf are the delta-cut scratch (deltacompact.go) — separate
	// from fuzzyBuf, which still holds the in-flight window when the
	// pressure valve cuts a delta mid-persist.
	fuzzyBuf []spec.Op
	nodeBuf  []*trace.Node
	deltaOps []spec.Op
	deltaBuf []uint64

	// Trace-node pooling (the last alloc/op on the update path). The
	// floor invariant: every walk of the handle's in-flight operation
	// touches only nodes with index >= floor - NProcs, and the floor is
	// published before the operation inserts its node — a base cut
	// above that node severs the segment a delta walk descends, and the
	// cutter's reclaim must already see the floor. enter publishes the
	// lower of viewIdx (replay walks stop there) and the chain head (a
	// delta cut's walk stops there); fuzzy/latest-available walks start
	// at or above the tail and by Proposition 5.2 descend at most NProcs
	// nodes. Idle handles publish MaxUint64. A retired node is promoted to the free
	// list only once idx + NProcs < min over all published floors, so no
	// in-flight walk can still reach it; nodes retired later stay in
	// retired until a future compaction re-checks. The same rule
	// (walkLimit) guards the base bodies a walk restores views from: a
	// base cut reuses one only once its base is below the limit.
	// freeNodes/retired are handle-private.
	floor     atomic.Uint64
	claiming  atomic.Bool // set while reclaim's claim walk holds chain pointers
	freeNodes []*trace.Node
	retired   []*trace.Node

	// bases holds the two chain-base bodies the handle's base cuts
	// alternate between (deltacompact.go), allocated at the first cut.
	bases *baseBufs

	sinceCompact int
	// spillsAtGrow snapshots the log's spill counter at the last ring
	// growth; the delta is the observed spill rate that lets the valve
	// escalate straight to growth under sustained pressure (valve.go).
	spillsAtGrow int
	busy         atomic.Bool // guards against misuse (two ops at once)

	// Every operation writes its own handle (busy, floor, seq, viewIdx),
	// so two handles must never share a cache line. The pad rounds the
	// struct to a line multiple; handles are allocated one by one, and a
	// line-multiple size lands in a line-multiple allocator size class,
	// so each starts on a line of its own (TestHandlesShareNoCacheLine,
	// DESIGN.md §3.9).
	_ [6]uint64
}

// maxFreeNodes caps a handle's deferred-promotion backlog, and its
// freelist unless the trace window is wider (freeCap); beyond the caps,
// retired nodes are dropped to the garbage collector (pooling is an
// optimization, not a leak trade).
const maxFreeNodes = 1 << 12

// PID returns the handle's process id.
func (h *Handle) PID() int { return h.pid }

// NextOpID returns the id the handle's next Update will carry. History
// recorders use it to attribute in-flight (crash-interrupted) operations
// that recovery may nevertheless report as linearized.
func (h *Handle) NextOpID() uint64 { return spec.MakeID(h.pid, h.seq+1) }

var errBusy = errors.New("core: handle used by two operations concurrently (one process = one operation at a time)")

func (h *Handle) enter() {
	if !h.busy.CompareAndSwap(false, true) {
		panic(errBusy)
	}
	// Publish the walk floor BEFORE the insert and any trace read
	// (sequentially consistent store; see the floor field).
	f := h.viewIdx
	if l := h.in.logs[h.pid]; l.ChainLen() > 0 && l.ChainHead() < f {
		f = l.ChainHead()
	}
	h.floor.Store(f)
}

func (h *Handle) exit() {
	h.floor.Store(^uint64(0))
	h.busy.Store(false)
}

// Update executes the update operation (code, args) through the
// order/persist/linearize pipeline (paper Listing 3). It returns the
// operation's return value and its unique id (usable with
// Report.WasLinearized after a crash). The call issues exactly one
// persistent fence (plus, every CompactEvery updates, the compaction
// snapshot's fence).
//
//onll:hotpath
func (h *Handle) Update(code uint64, args ...uint64) (ret, id uint64, err error) {
	if qerr := h.in.quarErr(); qerr != nil {
		return 0, 0, qerr
	}
	h.enter()
	defer h.exit()
	h.seq++
	op := spec.Op{Code: code, ID: spec.MakeID(h.pid, h.seq)}
	copy(op.Args[:], args)

	in := h.in
	// Order: fix the linearization order by appending to the trace.
	// The CAS inside is a concurrency fence but no NVM write-back is
	// pending, so it is not a persistent fence (paper footnote 2).
	node := h.newNode(op)
	in.tr.Insert(h.pid, node)
	in.gate.Step(h.pid, PointOrdered)

	// Persist: this operation plus the fuzzy window before it (helping
	// delayed processes), one log append, ONE persistent fence. The
	// scratch buffer is safe to reuse: Append copies the ops into NVM
	// and retains nothing. The record is assembled against the log's
	// inline budget transparently — a window deeper than
	// Config.LogInlineOps spills to the log's overflow ring inside the
	// same single-fence append.
	h.fuzzyBuf = trace.GetFuzzyOpsInto(h.fuzzyBuf, in.gate, h.pid, node)
	fuzzy := h.fuzzyBuf
	if in.cfg.UnsafeNoHelping {
		// ABLATION (E13): persist only our own operation.
		fuzzy = []spec.Op{op} //onll:allocok(E13 ablation branch only; the production path reuses fuzzyBuf)
	}
	if in.cfg.UnsafeLinearizeFirst {
		// ABLATION (E13): linearize before persisting — the ordering
		// Section 3.1 proves unsound. Readers can now expose this op
		// before it is durable.
		in.tr.SetAvailable(h.pid, node)
	}
	if _, err = in.logs[h.pid].Append(fuzzy, node.Idx()); err != nil {
		// The overflow ring is sized at a fraction of the worst case, so
		// a burst of deep fuzzy windows can exhaust it long before the
		// slot ring fills. persistWithValve escalates: compact behind
		// the view, catch the view up and compact deeper, grow the ring
		// — and only then fails with a typed ErrLogPressure (valve.go).
		if err = h.persistWithValve(fuzzy, node, err); err != nil {
			return 0, op.ID, fmt.Errorf("core: persist stage: %w", err)
		}
	}
	in.gate.Step(h.pid, PointPersisted)

	// Linearize: make the operation visible to readers.
	if !in.cfg.UnsafeLinearizeFirst {
		in.tr.SetAvailable(h.pid, node)
	}

	// Compute the return value on the state up to and including node.
	// seenEpoch is deliberately NOT refreshed here, so the handle's next
	// read revalidates with a walk: computeUpdate advances the view only
	// to OUR node, while an epoch loaded now also covers concurrently
	// published nodes with HIGHER indices (ordered after us, linearized
	// before us) that the view does not reflect — recording it would let
	// the next fast read miss an operation that completed before it.
	// Read's epoch is safe precisely because its walk reaches the latest
	// available node from the tail, not a fixed one.
	ret = h.computeUpdate(node)

	if ce := h.cutEvery(); ce > 0 {
		h.sinceCompact++
		if h.sinceCompact >= ce {
			h.sinceCompact = 0
			if cerr := h.compact(node); cerr != nil {
				err = fmt.Errorf("core: compaction: %w", cerr)
			}
		}
	}
	in.gate.Step(h.pid, PointReturn)
	return ret, op.ID, err
}

// Read executes the read-only operation (code, args) (paper Listing 4).
// It issues no persistent fence and writes nothing shared beyond the
// handle's own reclamation floor.
//
// With Config.ReadFastPath a read takes one of two routes: an epoch hit
// answers from the local view, anything else walks. The epoch check
// happens before the walk floor is published: the fast route
// dereferences no trace node, so it needs no reclamation cover, and a
// fast read costs one epoch load plus the view read. The floor store is
// deferred to the walk.
//
//onll:hotpath
func (h *Handle) Read(code uint64, args ...uint64) uint64 {
	if qerr := h.in.quarErr(); qerr != nil {
		// Read's signature predates quarantine and cannot return an
		// error; callers that must survive a quarantined object use
		// TryRead (health.go).
		panic(qerr)
	}
	if !h.busy.CompareAndSwap(false, true) {
		panic(errBusy)
	}
	defer h.busy.Store(false)
	op := spec.Op{Code: code}
	copy(op.Args[:], args)
	in := h.in
	fast := in.cfg.ReadFastPath && h.view != nil
	var epoch uint64
	if fast {
		// Load the epoch BEFORE the tail read below: any operation
		// whose publication the loaded value covers already has its
		// available flag set, so the walk is guaranteed to reach a node
		// at or above it — recording this value after the walk is what
		// makes the next epoch match proof of an up-to-date view.
		epoch = in.tr.Epoch(h.pid)
		if epoch == h.seenEpoch {
			ret := h.view.Read(op)
			in.gate.Step(h.pid, PointReturn)
			return ret
		}
	}
	// Publish the walk floor BEFORE any trace read (sequentially
	// consistent store): reclamation reads it to prove quiescence.
	h.floor.Store(h.viewIdx)
	defer h.floor.Store(^uint64(0))
	node := trace.LatestAvailableFrom(in.gate, h.pid, in.tr.Tail(h.pid))
	ret := h.computeRead(node, op)
	if fast {
		h.seenEpoch = epoch
	}
	in.gate.Step(h.pid, PointReturn)
	return ret
}

// computeUpdate returns node.Op's value on the prefix ending at node,
// advancing the local view when enabled.
//
//onll:hotpath
func (h *Handle) computeUpdate(node *trace.Node) uint64 {
	if h.view != nil && h.viewIdx < node.Idx() {
		return h.advanceView(node)
	}
	// Fresh replay (no local views, or — defensively — a view that has
	// somehow moved past node).
	st := h.in.sp.New()
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, 0)
	h.nodeBuf = nodes
	if base != nil {
		if err := st.Restore(base.Snap); err != nil {
			panic(fmt.Sprintf("core: corrupt base snapshot: %v", err))
		}
	}
	ret := spec.RetOK
	for _, n := range nodes {
		ret = st.Apply(n.Op)
	}
	return ret
}

// computeRead returns op's value on the prefix ending at node.
//
//onll:hotpath
func (h *Handle) computeRead(node *trace.Node, op spec.Op) uint64 {
	if h.view != nil {
		if h.viewIdx < node.Idx() {
			h.advanceView(node)
		}
		// If viewIdx > node.Idx(), the view already reflects
		// operations this process has itself observed as linearized;
		// serving the read from it is still linearizable (the read
		// linearizes after them).
		return h.view.Read(op)
	}
	st := h.in.sp.New()
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, 0)
	h.nodeBuf = nodes
	if base != nil {
		if err := st.Restore(base.Snap); err != nil {
			panic(fmt.Sprintf("core: corrupt base snapshot: %v", err))
		}
	}
	for _, n := range nodes {
		st.Apply(n.Op)
	}
	return st.Read(op)
}

// advanceView applies the operations between the view and node to the
// local view and returns the value of the last one applied (node's own
// operation): the Section 8 loop. If the walk meets a compaction base
// newer than the view, the view is restored from the base first, so a
// handle idle across any number of cuts replays at most the window
// above the newest base, never its whole lag.
//
//onll:hotpath
func (h *Handle) advanceView(node *trace.Node) uint64 {
	nodes, base := trace.CollectBackInto(h.nodeBuf, node, h.viewIdx)
	h.nodeBuf = nodes
	if base != nil && base.Idx() > h.viewIdx {
		if err := h.view.Restore(base.Snap); err != nil {
			panic(fmt.Sprintf("core: corrupt base snapshot: %v", err))
		}
		h.viewIdx = base.Idx()
		mergeSeqs(h.viewSeqs, base.Seqs)
	}
	ret := spec.RetOK
	for _, n := range nodes {
		ret = h.view.Apply(n.Op)
		h.viewIdx = n.Idx()
		if pid, seq := spec.SplitID(n.Op.ID); pid >= 0 && pid < len(h.viewSeqs) && seq > h.viewSeqs[pid] {
			h.viewSeqs[pid] = seq
		}
	}
	return ret
}

// newNode returns a trace node for op, reusing a pooled node when the
// freelist has one: steady-state updates under compaction allocate
// nothing (freeCap holds a whole trace window).
//
//onll:hotpath
func (h *Handle) newNode(op spec.Op) *trace.Node {
	if n := len(h.freeNodes); n > 0 {
		nd := h.freeNodes[n-1]
		h.freeNodes[n-1] = nil
		h.freeNodes = h.freeNodes[:n-1]
		nd.Reinit(op)
		return nd
	}
	return trace.NewNode(op)
}

// reclaim feeds the node pool after a compaction cut: old is the head of
// the trace segment the cut just made unreachable (the cut node's
// predecessor chain). The walk claims each update node with a CAS and
// stops at the first claim failure or non-update node, so two cuts
// racing over a not-yet-severed boundary partition the dead nodes
// cleanly — every earlier cut severed its own chain with a base node,
// which also terminates the walk.
//
// Claimed nodes wait in retired until provably quiescent, on two
// conditions checked at promotion time:
//
//  1. Floors. A node at index i is promoted only when i + NProcs < the
//     minimum published walk floor across handles (see the floor
//     field): mid-op handles block promotion of anything an ordinary
//     trace walk of theirs could still dereference.
//  2. Claim guards. Claim walks themselves can descend far below the
//     walker's own floor (a cutter that read a neighbour's cut-node
//     next pointer just before that neighbour's SetNextBase landed
//     walks into the neighbour's segment). Such a walker holds chain
//     pointers the floors do not cover, so each handle publishes a
//     claiming flag for the duration of its walk and promotion is
//     skipped entirely while any flag is up. A racing walker either
//     finished before the promotion check (its claim CAS already
//     failed against the claimed flag) or its guard is visible and
//     blocks the promotion — with sequentially consistent atomics
//     there is no third interleaving.
//
// Promotion being skipped is only a deferral: the nodes stay in
// retired and are re-examined at the next compaction (bounded by
// maxFreeNodes; beyond it they fall to the GC — pooling is an
// optimization, never a leak).
func (h *Handle) reclaim(old *trace.Node) {
	h.claiming.Store(true)
	for cur := old; cur != nil; {
		if !cur.TryClaim() {
			break // another cutter owns the rest of this segment
		}
		if cur.Kind != trace.KindUpdate {
			break // base or sentinel: never pooled
		}
		h.retired = append(h.retired, cur)
		cur = cur.Next()
	}
	h.claiming.Store(false)

	limit, ok := h.walkLimit()
	if !ok {
		h.capRetired()
		return
	}
	free := h.freeCap()
	kept := h.retired[:0]
	for _, n := range h.retired {
		switch {
		case n.Idx() >= limit:
			kept = append(kept, n) // possibly still walkable: retry later
		case len(h.freeNodes) < free:
			h.freeNodes = append(h.freeNodes, n)
		}
		// else: freelist full, drop to GC.
	}
	for i := len(kept); i < len(h.retired); i++ {
		h.retired[i] = nil
	}
	h.retired = kept
	h.capRetired()
}

// walkLimit is reclaim's quiescence rule, shared with the base-body
// reuse of deltacompact.go: no in-flight walk can reach a node or a base
// whose index is below limit (the minimum published floor minus NProcs;
// see the floor field). ok is false while another handle's claim walk is
// in flight, since such a walk may hold pointers no floor covers.
func (h *Handle) walkLimit() (limit uint64, ok bool) {
	minFloor := ^uint64(0)
	for _, other := range h.in.hands {
		if other != h && other.claiming.Load() {
			return 0, false
		}
		if f := other.floor.Load(); f < minFloor {
			minFloor = f
		}
	}
	if slack := uint64(h.in.cfg.NProcs); minFloor > slack {
		return minFloor - slack, true
	}
	return 0, true
}

// freeCap is the freelist's bound: maxFreeNodes, or the trace window
// delta chains keep between trace cuts (MaxDeltaChain cadences plus the
// fuzzy window) when that is wider, so a base cut's whole severed
// segment is pooled and the updates until the next one allocate no node.
func (h *Handle) freeCap() int {
	return max(maxFreeNodes, h.in.cfg.MaxDeltaChain*h.cutEvery()+h.in.cfg.NProcs)
}

// capRetired bounds the deferred-promotion backlog: claimed nodes past
// the cap are dropped to the garbage collector (they were claimed, so
// no other handle will ever pool them — they are simply garbage).
func (h *Handle) capRetired() {
	if len(h.retired) <= maxFreeNodes {
		return
	}
	drop := len(h.retired) - maxFreeNodes
	kept := h.retired[:0]
	kept = append(kept, h.retired[drop:]...)
	for i := len(kept); i < len(h.retired); i++ {
		h.retired[i] = nil
	}
	h.retired = kept
}

// mergeSeqs raises dst entries to at least src's.
func mergeSeqs(dst, src []uint64) {
	for i := range dst {
		if i < len(src) && src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Snapshot payload layout on the persistent log: the covered-sequence
// vector (detectability across compaction) followed by the object state.
// snapEncode appends the envelope — the vector's length, then the
// vector — to dst; the caller appends the state (spec.State's
// AppendSnapshot, or a delta body) after it.
func snapEncode(dst, seqs []uint64) []uint64 {
	dst = append(dst, uint64(len(seqs)))
	return append(dst, seqs...)
}

func snapDecode(words []uint64) (seqs, state []uint64, err error) {
	if len(words) < 1 {
		return nil, nil, errors.New("core: empty snapshot payload")
	}
	n := int(words[0])
	if n < 0 || n > MaxProcs || 1+n > len(words) {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header %d", words[0])
	}
	return words[1 : 1+n : 1+n], words[1+n:], nil
}

// compact implements the Section 8 reclamation scheme after the update
// that created node: durably append a chain record covering the state
// at s = node.Idx() (one persistent fence) and truncate every earlier
// record of this process's log. A delta cut leaves the trace alone: its
// window must stay walkable for the next delta. A base cut also links
// node to a base node at index s, so the old prefix becomes unreachable
// for new walkers and its nodes are reclaimed. Recovery ignores logged
// operations with indices <= the newest chain head, so other
// processes' still-live records of old operations are harmless.
func (h *Handle) compact(node *trace.Node) error {
	s := node.Idx()
	if h.viewIdx != s {
		return fmt.Errorf("core: compact view at %d, node at %d", h.viewIdx, s)
	}
	done, foreign, err := h.tryDeltaCut(node)
	if done || err != nil {
		return err
	}
	slot, body, err := h.chainBaseAndTruncate(s)
	if err != nil {
		return err
	}
	if foreign {
		// This base was forced by a sentinel another handle spliced
		// inside our window, so the trace was already cut (and bounded)
		// at that sentinel moments ago. Splicing our own sentinel here
		// would land inside THAT handle's next window and force it to
		// collapse too — with two or more cutters the induced bases
		// ping-pong forever and no delta ever lands. Leave the trace
		// alone; the next clean-window base (oversize or scheduled
		// collapse) splices as usual.
		return nil
	}
	old := node.Next()
	seqs, snap, _ := snapDecode(body)
	node.SetNextBase(trace.NewBase(s, snap, seqs))
	h.bases.idx[slot] = s
	h.reclaim(old)
	return nil
}

// compactForSpace is the overflow-ring pressure valve, called from the
// persist stage when plog reports ErrOvfFull: it lays a chain base of
// the local view where it stands and truncates the log behind it,
// freeing overflow chunks so the in-flight append can retry. Every
// operation at or below the view index is already durable, so this is
// exactly compact's log half; it does NOT cut the trace. Two extra
// persistent fences, only on the exhaustion path. A view still at the
// chain head has nothing new to cover: the error sends the valve
// ladder to its catch-up rung.
func (h *Handle) compactForSpace() error {
	if h.view == nil {
		return errors.New("core: overflow ring full and no local view to compact from")
	}
	log := h.in.logs[h.pid]
	if h.viewIdx == 0 || log.Len() == 0 {
		return errors.New("core: overflow ring full with nothing to compact")
	}
	if log.ChainLen() > 0 && h.viewIdx == log.ChainHead() && log.Len() <= 1 {
		return fmt.Errorf("core: view at %d already covered by the chain head", h.viewIdx)
	}
	_, _, err := h.chainBaseAndTruncate(h.viewIdx)
	return err
}

// ---------------------------------------------------------------------
// Recovery (paper Listing 5 + Section 8 snapshots).
// ---------------------------------------------------------------------

// Report describes what recovery found: which operations were linearized
// before the crash (detectable execution) and where the rebuilt trace
// starts and ends.
type Report struct {
	// Linearized maps operation id -> execution index for every update
	// linearized before the crash and visible after it.
	Linearized map[uint64]uint64
	// Ordered is the recovered update sequence (indices BaseIdx+1..
	// LastIdx), oldest first.
	Ordered []spec.Op
	// BaseIdx is the snapshot index recovery restarted from (0 = none).
	BaseIdx uint64
	// BaseState is the decoded snapshot state at BaseIdx (nil if none).
	BaseState []uint64
	// CoveredSeq maps process id -> highest op sequence number folded
	// into the recovered snapshot: every op of that process with a
	// sequence number at or below it was linearized before the crash,
	// even though its individual record was compacted away.
	CoveredSeq map[int]uint64
	// LastIdx is the execution index of the newest recovered operation.
	LastIdx uint64
	// PerProcessSeq records the highest per-process op sequence number
	// seen, so replacement processes do not reuse ids.
	PerProcessSeq map[int]uint64
	// Salvage details what salvaging recovery found (nil in strict
	// mode): per-process salvage counters, the health classification,
	// and the full loss evidence (health.go).
	Salvage *SalvageReport
}

// WasLinearized implements detectable execution: after recovery it
// reports whether the update with the given id took effect before the
// crash, and at which execution index. Operations absorbed into a
// compaction snapshot are reported as linearized with index 0 (their
// individual position was compacted away but is at most BaseIdx).
func (r *Report) WasLinearized(id uint64) (idx uint64, ok bool) {
	if idx, ok = r.Linearized[id]; ok {
		return idx, true
	}
	if pid, seq := spec.SplitID(id); pid >= 0 && seq > 0 && seq <= r.CoveredSeq[pid] {
		return 0, true
	}
	return 0, false
}

// Recover rebuilds the object from the durable contents of pool after a
// crash, per Listing 5: it restores the newest valid snapshot (if any),
// then stitches together the operation sequence from all per-process
// logs, inserting each found operation into a fresh execution trace with
// its available flag set. The returned instance is ready for new
// operations; its processes are the crash survivors' replacements.
//
// With cfg.Salvage, structures that fail validation no longer abort
// recovery: each log contributes its longest valid prefix plus any
// checksummed records stranded beyond damage (orphans — helping usually
// re-persisted the missing operations in another log, bridging the
// gap), and the instance comes back Healthy, Degraded, or Quarantined
// (health.go); Report.Salvage details what was found. Quarantined
// instances still carry the best-effort prefix for inspection and
// Recreate.
func Recover(pool *pmem.Pool, sp spec.Spec, cfg Config) (*Instance, *Report, error) {
	rb := cfg.RootBase
	if rb < 0 || rb+rootLogBase >= pmem.RootSlots {
		return nil, nil, fmt.Errorf("core: RootBase %d out of range", rb)
	}
	if pool.Root(rb+rootMagicSlot) != rootMagic {
		return nil, nil, errors.New("core: pool has no ONLL root (not initialized?)")
	}
	nprocs := int(pool.Root(rb + rootNProcsSlot))
	if nprocs < 1 || nprocs > MaxProcs || rb+rootLogBase+nprocs > pmem.RootSlots {
		return nil, nil, fmt.Errorf("core: implausible recovered NProcs %d", nprocs)
	}
	if cfg.NProcs == 0 {
		cfg.NProcs = nprocs
	}
	if cfg.NProcs != nprocs {
		return nil, nil, fmt.Errorf("core: configured NProcs %d != recovered %d", cfg.NProcs, nprocs)
	}
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}

	in := &Instance{cfg: cfg, sp: sp, pool: pool, gate: cfg.Gate}
	if err := claimRoots(pool, &cfg); err != nil {
		return nil, nil, err
	}
	var (
		records  []plog.Record
		cands    []baseCand // compaction records recovery may restart from
		salv     *SalvageReport
		evidence []error // loss evidence: any entry quarantines
		damaged  bool    // non-benign damage seen (degraded unless loss)
	)
	collect := func(pid int, l *plog.Log, recs []plog.Record) {
		records = append(records, recs...)
		for _, r := range recs {
			if r.Kind == plog.KindSnapshot || r.Kind == plog.KindDelta {
				cands = append(cands, baseCand{pid: pid, log: l, rec: r})
			}
		}
	}
	if cfg.Salvage {
		salv = &SalvageReport{PerPid: make([]PidSalvage, nprocs)}
	}
	for pid := 0; pid < nprocs; pid++ {
		base := pmem.Addr(pool.Root(rb + rootLogBase + pid))
		l, err := plog.Open(pool, pid, base)
		if err != nil {
			if !cfg.Salvage {
				return nil, nil, fmt.Errorf("core: reopening log of p%d: %w", pid, err)
			}
			// The whole log is unreadable. Its process's un-helped
			// operations are gone: loss evidence.
			salv.PerPid[pid].OpenErr = err
			evidence = append(evidence, fmt.Errorf("%w: log of p%d: %v", ErrBadSlotHeader, pid, err))
			in.logs = append(in.logs, nil)
			continue
		}
		in.logs = append(in.logs, l)
		var live []plog.Record
		if cfg.Salvage {
			s := l.SalvageScan()
			ps := &salv.PerPid[pid]
			ps.BadSlots, ps.Orphans, ps.TailTorn = len(s.BadSeqs), len(s.Orphans), s.TailTorn()
			collect(pid, l, s.Live)
			collect(pid, l, s.Orphans)
			if s.Damaged() {
				damaged = true
			}
			live = s.Live
		} else {
			live = l.Records()
			collect(pid, l, live)
		}
		// Truncation-coverage invariant: headSeq > 0 means compaction
		// truncated records, and compaction always leaves its covering
		// record — a snapshot, or a delta-chain record whose chain must
		// still resolve — as the oldest live record (the covering
		// append is fenced before the truncate is, so every crash-legal
		// image satisfies this). A violated invariant means the
		// coverage, and everything it covered, is gone: silent loss,
		// fatal in strict mode and quarantine evidence under salvage.
		if l.HeadSeq() > 0 {
			covered := false
			if len(live) > 0 && live[0].Seq == l.HeadSeq()+1 {
				switch live[0].Kind {
				case plog.KindSnapshot:
					covered = true
				case plog.KindDelta:
					_, rerr := l.ResolveChain(live[0])
					covered = rerr == nil
				}
			}
			if !covered {
				cerr := fmt.Errorf(
					"%w: p%d truncated through seq %d but the covering snapshot is unreadable",
					ErrSnapshotCorrupt, pid, l.HeadSeq())
				if !cfg.Salvage {
					return nil, nil, cerr
				}
				evidence = append(evidence, cerr)
			}
		}
	}

	rep := &Report{
		Linearized: map[uint64]uint64{}, PerProcessSeq: map[int]uint64{},
		CoveredSeq: map[int]uint64{}, Salvage: salv,
	}

	// Newest valid compaction record wins: a plain full snapshot, or
	// the head of a delta chain folded back into a full state
	// (foldBaseCandidate, deltacompact.go). Candidates are tried
	// newest-first; one that does not fold — an unresolvable chain, an
	// undecodable payload, a corrupt diff — is unreconstructible
	// coverage: fatal in strict mode, loss evidence plus the next
	// candidate under salvage.
	sort.Slice(cands, func(i, j int) bool { return cands[i].rec.ExecIdx > cands[j].rec.ExecIdx })
	var baseSeqs []uint64
	for _, c := range cands {
		seqs, state, err := foldBaseCandidate(sp, c.log, c.rec)
		if err != nil {
			err = fmt.Errorf("%w: p%d at index %d: %v", ErrSnapshotCorrupt, c.pid, c.rec.ExecIdx, err)
			if !cfg.Salvage {
				return nil, nil, err
			}
			evidence = append(evidence, err)
			continue
		}
		rep.BaseIdx, rep.BaseState, baseSeqs = c.rec.ExecIdx, state, seqs
		break
	}
	for pid, seq := range baseSeqs {
		if seq > 0 {
			rep.CoveredSeq[pid] = seq
			if seq > rep.PerProcessSeq[pid] {
				rep.PerProcessSeq[pid] = seq
			}
		}
	}

	// Union of all persisted operations, by execution index. Helping
	// means the same (index, op) pair may appear in several logs; the
	// pairs agree by construction (cross-checked here).
	byIdx := map[uint64]spec.Op{}
	for _, rec := range records {
		if rec.Kind != plog.KindOps {
			continue
		}
		for k, op := range rec.Ops {
			idx := rec.ExecIdx - uint64(k)
			if idx <= rep.BaseIdx {
				continue
			}
			if prev, dup := byIdx[idx]; dup && prev != op {
				if !cfg.Salvage {
					return nil, nil, fmt.Errorf("core: logs disagree at index %d: %v vs %v", idx, prev, op)
				}
				// Two checksummed records disagree about an index:
				// impossible in a crash-only execution, so one of them
				// is silent media damage we cannot tell apart.
				evidence = append(evidence, fmt.Errorf("%w: logs disagree at index %d", ErrTornRecord, idx))
				continue
			}
			byIdx[idx] = op
		}
	}

	// Listing 5: walk indices upward from the base; the first gap ends
	// the recoverable prefix (Proposition 5.10 shows no gap can precede
	// a persisted operation).
	var ordered []spec.Op
	i := rep.BaseIdx + 1
	for {
		op, ok := byIdx[i]
		if !ok {
			break
		}
		ordered = append(ordered, op)
		i++
	}
	rep.LastIdx = rep.BaseIdx + uint64(len(ordered))
	rep.Ordered = ordered

	if cfg.Salvage && len(byIdx) > len(ordered) {
		// Persisted operations stranded beyond the first gap. Proposition
		// 5.10 rules this out for crash-only executions (helping persists
		// the whole fuzzy window below every operation), so the gap is a
		// destroyed record, and the stranded operations were linearized
		// but are unrecoverable in order: loss evidence.
		evidence = append(evidence, fmt.Errorf(
			"%w: %d persisted operations stranded beyond index %d",
			ErrTornRecord, len(byIdx)-len(ordered), rep.LastIdx))
	}

	// Rebuild the trace: base (or INITIALIZE sentinel), then one
	// available node per recovered operation.
	var sentinel *trace.Node
	if rep.BaseIdx > 0 {
		sentinel = trace.NewBase(rep.BaseIdx, rep.BaseState, baseSeqs)
	}
	in.tr = newTrace(&cfg, sentinel)
	recPID := 0 // recovery runs single-threaded; pid 0 stands in
	for k, op := range ordered {
		n := trace.NewNode(op)
		in.tr.Insert(recPID, n)
		in.tr.SetAvailable(recPID, n)
		idx := rep.BaseIdx + 1 + uint64(k)
		if n.Idx() != idx {
			return nil, nil, fmt.Errorf("core: recovery trace index skew: %d != %d", n.Idx(), idx)
		}
		rep.Linearized[op.ID] = idx
		if pid, seq := spec.SplitID(op.ID); pid >= 0 && seq > rep.PerProcessSeq[pid] {
			rep.PerProcessSeq[pid] = seq
		}
	}

	in.makeHandles(rep.PerProcessSeq)
	if cfg.Salvage {
		in.classifySalvage(rep, evidence, damaged)
	}
	return in, rep, nil
}
