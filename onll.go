package onll

import (
	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Re-exported building blocks so that library users need not import
// internal packages directly.
type (
	// Pool is a simulated NVM device (see internal/pmem).
	Pool = pmem.Pool
	// Stats counts a process's memory primitives, in particular
	// PersistentFences — the cost the paper bounds.
	Stats = pmem.Stats
	// Oracle decides which in-flight cache lines survive a crash.
	Oracle = pmem.Oracle
	// Config selects process count, log capacity and the Section 8
	// extensions (wait-freedom, local views, compaction).
	Config = core.Config
	// Instance is a durably linearizable object built by ONLL.
	Instance = core.Instance
	// Handle is one process's interface to an Instance.
	Handle = core.Handle
	// Report is what recovery learned (detectable execution).
	Report = core.Report
	// Op is a fixed-width operation record.
	Op = spec.Op
	// Spec is a deterministic sequential object specification.
	Spec = spec.Spec
	// State is a mutable sequential object state.
	State = spec.State
	// Gate interposes deterministic scheduling (see internal/sched).
	Gate = sched.Gate
	// Health is an instance's health snapshot (Instance.Health): mode,
	// quarantine reason, and aggregate salvage counters.
	Health = core.Health
	// HealthMode classifies a recovered instance: healthy, degraded, or
	// quarantined.
	HealthMode = core.HealthMode
	// SalvageReport details what recovery found (Report.Salvage, set in
	// both modes).
	SalvageReport = core.SalvageReport
	// PidSalvage is one process's salvage outcome.
	PidSalvage = core.PidSalvage
	// ScrubReport is one on-demand scrub pass over every log
	// (Instance.Scrub) — the latent-corruption detector.
	ScrubReport = core.ScrubReport
	// ScrubTotals is the cumulative scrub counter snapshot.
	ScrubTotals = core.ScrubTotals
	// PressureStats counts log-pressure valve activity (Instance.Pressure).
	PressureStats = core.PressureStats
	// FaultPlan is a seeded deterministic media-fault plan
	// (Pool.InjectFaults).
	FaultPlan = pmem.FaultPlan
	// Fault is a single media fault.
	Fault = pmem.Fault
	// FaultClass selects a fault's corruption pattern.
	FaultClass = pmem.FaultClass
)

// Health modes (Instance.Health().Mode).
const (
	ModeHealthy     = core.ModeHealthy
	ModeDegraded    = core.ModeDegraded
	ModeQuarantined = core.ModeQuarantined
)

// Media-fault classes for PlanFaults.
const (
	FaultBitFlip   = pmem.FaultBitFlip
	FaultTornLine  = pmem.FaultTornLine
	FaultStuckLine = pmem.FaultStuckLine
)

// Typed failure taxonomy: salvaging recovery and degraded-mode
// operations report loss through these (errors.Is-matchable).
var (
	// ErrTornRecord: a log record failed validation with operations
	// stranded beyond it.
	ErrTornRecord = core.ErrTornRecord
	// ErrBadSlotHeader: a log's header region did not validate.
	ErrBadSlotHeader = core.ErrBadSlotHeader
	// ErrSnapshotCorrupt: a compaction snapshot did not decode.
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrObjectQuarantined: the object shows evidence of lost
	// operations; Update/TryRead refuse until Instance.Recreate.
	ErrObjectQuarantined = core.ErrObjectQuarantined
	// ErrLogPressure: an update found its log's overflow ring short
	// even after the pressure valve's one relief (a chain base at the
	// caught-up view, or ring growth); the op was not ordered.
	ErrLogPressure = core.ErrLogPressure
	// ErrRootOverlap: Open/Recover was asked to place an instance on a
	// root-table range another live instance on the same pool already
	// claims (overlapping Config.RootBase partitions). Tile instances
	// with RootSpan to avoid it.
	ErrRootOverlap = core.ErrRootOverlap
)

// RootSpan returns the number of root-table slots an instance with
// nprocs processes occupies at Config.RootBase; place a second
// instance at RootBase + RootSpan(nprocs) to share the pool without
// overlap.
func RootSpan(nprocs int) int { return core.RootSpan(nprocs) }

// PlanFaults builds a seeded deterministic fault plan of n faults over
// cache lines [minLine, maxLine) — combine with Pool.AllocatedLines and
// Pool.InjectFaults to model media corruption between crash and
// recovery.
func PlanFaults(seed uint64, n int, minLine, maxLine uint64) FaultPlan {
	return pmem.PlanFaults(seed, n, minLine, maxLine)
}

// RootTableLines is the number of leading cache lines holding the pool
// root table; fault plans should start at or above it (the root table
// is fixed-size redundant metadata, not checksummed log state).
const RootTableLines = uint64(pmem.RootSlots * pmem.WordSize / pmem.LineSize)

// Crash oracles re-exported for convenience.
var (
	// DropAll models the adversarial crash: nothing unfenced survives.
	DropAll = pmem.DropAll
	// KeepAll models the lucky crash: every write-back raced ahead.
	KeepAll = pmem.KeepAll
)

// SeededOracle returns a deterministic pseudo-random crash oracle under
// which each undecided cache line survives with probability num/den.
func SeededOracle(seed, num, den uint64) Oracle {
	return pmem.SeededOracle(seed, num, den)
}

// Sentinel return values used by the shipped objects.
const (
	RetEmpty   = spec.RetEmpty
	RetMissing = spec.RetMissing
	RetFail    = spec.RetFail
	RetOK      = spec.RetOK
)

// NewPool allocates a simulated NVM pool of the given size in bytes.
// gate may be nil for free-running executions.
func NewPool(size int, gate Gate) *Pool { return pmem.New(size, gate) }

// LoadPool restores a pool image previously written with Pool.SaveFile —
// the moral equivalent of the machine rebooting with its NVDIMM intact.
func LoadPool(path string, gate Gate) (*Pool, error) { return pmem.LoadFile(path, gate) }

// Open builds a fresh durably linearizable instance of sp on pool.
func Open(pool *Pool, sp Spec, cfg Config) (*Instance, error) {
	return core.New(pool, sp, cfg)
}

// Recover rebuilds an instance from the durable contents of pool after a
// crash and reports which operations survived (detectable execution).
func Recover(pool *Pool, sp Spec, cfg Config) (*Instance, *Report, error) {
	return core.Recover(pool, sp, cfg)
}

// ---------------------------------------------------------------------
// Typed wrappers over the shipped object specifications. Each wrapper is
// a thin veneer over a per-process Handle: obtain one per process.
// ---------------------------------------------------------------------

// Counter is the paper's running-example shared counter (Section 3.3).
type Counter struct{ H *Handle }

// CounterSpec returns the counter's sequential specification.
func CounterSpec() Spec { return objects.CounterSpec{} }

// Inc increments the counter, returning the new value and the op id.
func (c Counter) Inc() (uint64, uint64, error) { return c.H.Update(objects.CounterInc) }

// Add adds delta, returning the new value and the op id.
func (c Counter) Add(delta uint64) (uint64, uint64, error) {
	return c.H.Update(objects.CounterAdd, delta)
}

// Get reads the current value (no persistent fence).
func (c Counter) Get() uint64 { return c.H.Read(objects.CounterGet) }

// Register is a single durable word.
type Register struct{ H *Handle }

// RegisterSpec returns the register's sequential specification.
func RegisterSpec() Spec { return objects.RegisterSpec{} }

// Write stores v, returning the previous value and the op id.
func (r Register) Write(v uint64) (uint64, uint64, error) {
	return r.H.Update(objects.RegisterWrite, v)
}

// Read returns the current value.
func (r Register) Read() uint64 { return r.H.Read(objects.RegisterRead) }

// Map is a durable uint64 -> uint64 map.
type Map struct{ H *Handle }

// MapSpec returns the map's sequential specification.
func MapSpec() Spec { return objects.MapSpec{} }

// Put stores k -> v, returning the previous value (RetMissing if absent)
// and the op id.
func (m Map) Put(k, v uint64) (uint64, uint64, error) { return m.H.Update(objects.MapPut, k, v) }

// Del removes k, returning the removed value (RetMissing if absent) and
// the op id.
func (m Map) Del(k uint64) (uint64, uint64, error) { return m.H.Update(objects.MapDel, k) }

// CAS replaces k's value with new iff it currently equals old; returns
// RetOK/RetFail and the op id.
func (m Map) CAS(k, old, new uint64) (uint64, uint64, error) {
	return m.H.Update(objects.MapCAS, k, old, new)
}

// Get returns k's value, or RetMissing.
func (m Map) Get(k uint64) uint64 { return m.H.Read(objects.MapGet, k) }

// Len returns the number of keys.
func (m Map) Len() uint64 { return m.H.Read(objects.MapLen) }

// Queue is a durable FIFO queue.
type Queue struct{ H *Handle }

// QueueSpec returns the queue's sequential specification.
func QueueSpec() Spec { return objects.QueueSpec{} }

// Enq appends v, returning the new length and the op id.
func (q Queue) Enq(v uint64) (uint64, uint64, error) { return q.H.Update(objects.QueueEnq, v) }

// Deq removes the front element, returning it (RetEmpty if empty) and
// the op id.
func (q Queue) Deq() (uint64, uint64, error) { return q.H.Update(objects.QueueDeq) }

// Front returns the front element or RetEmpty.
func (q Queue) Front() uint64 { return q.H.Read(objects.QueueFront) }

// Len returns the queue length.
func (q Queue) Len() uint64 { return q.H.Read(objects.QueueLen) }

// Stack is a durable LIFO stack.
type Stack struct{ H *Handle }

// StackSpec returns the stack's sequential specification.
func StackSpec() Spec { return objects.StackSpec{} }

// Push pushes v, returning the new depth and the op id.
func (s Stack) Push(v uint64) (uint64, uint64, error) { return s.H.Update(objects.StackPush, v) }

// Pop removes the top element, returning it (RetEmpty if empty) and the
// op id.
func (s Stack) Pop() (uint64, uint64, error) { return s.H.Update(objects.StackPop) }

// Peek returns the top element or RetEmpty.
func (s Stack) Peek() uint64 { return s.H.Read(objects.StackPeek) }

// Len returns the depth.
func (s Stack) Len() uint64 { return s.H.Read(objects.StackLen) }

// Set is a durable set of words.
type Set struct{ H *Handle }

// SetSpec returns the set's sequential specification.
func SetSpec() Spec { return objects.SetSpec{} }

// Add inserts v, returning RetOK (added) or RetFail (present) and the op id.
func (s Set) Add(v uint64) (uint64, uint64, error) { return s.H.Update(objects.SetAdd, v) }

// Remove deletes v, returning RetOK or RetFail and the op id.
func (s Set) Remove(v uint64) (uint64, uint64, error) { return s.H.Update(objects.SetRemove, v) }

// Contains reports (1/0) whether v is present.
func (s Set) Contains(v uint64) uint64 { return s.H.Read(objects.SetContains, v) }

// Len returns the cardinality.
func (s Set) Len() uint64 { return s.H.Read(objects.SetLen) }

// Deque is a durable double-ended queue.
type Deque struct{ H *Handle }

// DequeSpec returns the deque's sequential specification.
func DequeSpec() Spec { return objects.DequeSpec{} }

// PushFront prepends v.
func (d Deque) PushFront(v uint64) (uint64, uint64, error) {
	return d.H.Update(objects.DequePushFront, v)
}

// PushBack appends v.
func (d Deque) PushBack(v uint64) (uint64, uint64, error) {
	return d.H.Update(objects.DequePushBack, v)
}

// PopFront removes and returns the front element (RetEmpty if empty).
func (d Deque) PopFront() (uint64, uint64, error) { return d.H.Update(objects.DequePopFront) }

// PopBack removes and returns the back element (RetEmpty if empty).
func (d Deque) PopBack() (uint64, uint64, error) { return d.H.Update(objects.DequePopBack) }

// Front returns the front element or RetEmpty.
func (d Deque) Front() uint64 { return d.H.Read(objects.DequeFront) }

// Back returns the back element or RetEmpty.
func (d Deque) Back() uint64 { return d.H.Read(objects.DequeBack) }

// Len returns the length.
func (d Deque) Len() uint64 { return d.H.Read(objects.DequeLen) }

// PQueue is a durable min-priority queue.
type PQueue struct{ H *Handle }

// PQSpec returns the priority queue's sequential specification.
func PQSpec() Spec { return objects.PQSpec{} }

// Insert adds v, returning the new size and the op id.
func (p PQueue) Insert(v uint64) (uint64, uint64, error) { return p.H.Update(objects.PQInsert, v) }

// ExtractMin removes and returns the minimum (RetEmpty if empty).
func (p PQueue) ExtractMin() (uint64, uint64, error) { return p.H.Update(objects.PQExtractMin) }

// Min returns the minimum or RetEmpty.
func (p PQueue) Min() uint64 { return p.H.Read(objects.PQMin) }

// Len returns the size.
func (p PQueue) Len() uint64 { return p.H.Read(objects.PQLen) }

// AppendLog is a durable append-only sequence.
type AppendLog struct{ H *Handle }

// AppendLogSpec returns the append-only log's sequential specification.
func AppendLogSpec() Spec { return objects.LogSpec{} }

// Append appends v, returning its index and the op id.
func (l AppendLog) Append(v uint64) (uint64, uint64, error) {
	return l.H.Update(objects.LogAppend, v)
}

// At returns the element at index i, or RetMissing.
func (l AppendLog) At(i uint64) uint64 { return l.H.Read(objects.LogAt, i) }

// Len returns the number of elements.
func (l AppendLog) Len() uint64 { return l.H.Read(objects.LogLen) }

// OrderedMap is a durable sorted map with order queries (floor,
// ceiling, rank, select) — the index-tree-shaped object of the
// persistent-data-structure literature.
type OrderedMap struct{ H *Handle }

// OrderedMapSpec returns the sorted map's sequential specification.
func OrderedMapSpec() Spec { return objects.OrderedMapSpec{} }

// Put stores k -> v, returning the previous value (RetMissing if absent).
func (m OrderedMap) Put(k, v uint64) (uint64, uint64, error) {
	return m.H.Update(objects.OMapPut, k, v)
}

// Del removes k, returning the removed value or RetMissing.
func (m OrderedMap) Del(k uint64) (uint64, uint64, error) {
	return m.H.Update(objects.OMapDel, k)
}

// Get returns k's value or RetMissing.
func (m OrderedMap) Get(k uint64) uint64 { return m.H.Read(objects.OMapGet, k) }

// Floor returns the greatest key <= k, or RetMissing.
func (m OrderedMap) Floor(k uint64) uint64 { return m.H.Read(objects.OMapFloor, k) }

// Ceil returns the least key >= k, or RetMissing.
func (m OrderedMap) Ceil(k uint64) uint64 { return m.H.Read(objects.OMapCeil, k) }

// Rank returns the number of keys strictly below k.
func (m OrderedMap) Rank(k uint64) uint64 { return m.H.Read(objects.OMapRank, k) }

// Select returns the i-th smallest key (0-based), or RetMissing.
func (m OrderedMap) Select(i uint64) uint64 { return m.H.Read(objects.OMapSelect, i) }

// Min returns the smallest key or RetMissing.
func (m OrderedMap) Min() uint64 { return m.H.Read(objects.OMapMin) }

// Max returns the largest key or RetMissing.
func (m OrderedMap) Max() uint64 { return m.H.Read(objects.OMapMax) }

// Len returns the number of keys.
func (m OrderedMap) Len() uint64 { return m.H.Read(objects.OMapLen) }

// Bank is a durable account ledger whose conserved total makes
// crash-consistency bugs observable (see examples/bank).
type Bank struct{ H *Handle }

// BankSpec returns the ledger's sequential specification.
func BankSpec() Spec { return objects.BankSpec{} }

// Deposit adds amt to acct, returning the new balance and the op id.
func (b Bank) Deposit(acct, amt uint64) (uint64, uint64, error) {
	return b.H.Update(objects.BankDeposit, acct, amt)
}

// Withdraw removes amt from acct (RetFail on overdraft).
func (b Bank) Withdraw(acct, amt uint64) (uint64, uint64, error) {
	return b.H.Update(objects.BankWithdraw, acct, amt)
}

// Transfer moves amt from one account to another (RetOK/RetFail).
func (b Bank) Transfer(from, to, amt uint64) (uint64, uint64, error) {
	return b.H.Update(objects.BankTransfer, from, to, amt)
}

// Balance returns acct's balance.
func (b Bank) Balance(acct uint64) uint64 { return b.H.Read(objects.BankBalance, acct) }

// Total returns the sum of all balances (conserved by Transfer).
func (b Bank) Total() uint64 { return b.H.Read(objects.BankTotal) }
