// Package spec defines the deterministic sequential-object model the
// universal construction operates on (paper Section 2.2).
//
// The state of an object is, by definition, the sequence of update
// operations applied to it starting with INITIALIZE; update operations
// are deterministic, so replaying the sequence always yields the same
// state. The construction assumes a compute method that, given a
// read-only operation and a state, returns the operation's value; for an
// update, the value is computed on the state immediately after appending
// the update. State/Spec encode exactly that contract.
//
// Operations are fixed-width records (an opcode, three word arguments and
// a unique id) so that persistent-log entries have a deterministic
// layout. Objects whose natural keys are richer than uint64 are expected
// to map them down (e.g. by interning); every object shipped in
// internal/objects uses uint64 keys/values directly.
package spec

import "fmt"

// OpWords is the number of 64-bit words an operation occupies on the
// persistent log.
const OpWords = 5

// Op is one operation invocation: an object-specific opcode, up to three
// word-sized arguments, and a unique id used for detectable execution
// (after recovery, a process can ask whether the op with a given id was
// linearized before the crash).
type Op struct {
	Code uint64
	Args [3]uint64
	ID   uint64
}

// Encode appends the wire representation of op to dst.
func (o Op) Encode(dst []uint64) []uint64 {
	return append(dst, o.Code, o.Args[0], o.Args[1], o.Args[2], o.ID)
}

// DecodeOp reads one operation from src.
func DecodeOp(src []uint64) Op {
	return Op{Code: src[0], Args: [3]uint64{src[1], src[2], src[3]}, ID: src[4]}
}

func (o Op) String() string {
	return fmt.Sprintf("op{code=%d args=%v id=%#x}", o.Code, o.Args, o.ID)
}

// MakeID builds a globally unique operation id from a process id and that
// process's per-process sequence number. ID 0 is reserved for "no id"
// (INITIALIZE, recovery-internal ops), so seq starts at 1.
func MakeID(pid int, seq uint64) uint64 {
	return uint64(pid+1)<<48 | (seq & (1<<48 - 1))
}

// SplitID is the inverse of MakeID.
func SplitID(id uint64) (pid int, seq uint64) {
	return int(id>>48) - 1, id & (1<<48 - 1)
}

// Sentinel return values used by the shipped objects.
const (
	// RetEmpty is returned by removal/inspection ops on empty containers.
	RetEmpty = ^uint64(0)
	// RetMissing is returned by lookups of absent keys.
	RetMissing = ^uint64(0) - 1
	// RetFail is returned by failed conditional ops (CAS, overdraft...).
	RetFail = ^uint64(0) - 2
	// RetOK is the generic success value for ops without a payload result.
	RetOK = uint64(1)
)

// State is a mutable sequential object state.
//
// Apply and Read must be deterministic. Snapshots must be deterministic
// too (two states reached by the same update sequence must produce equal
// snapshots) — checkers compare states by snapshot, and snapshots are
// written to the persistent log by the compaction extension (paper
// Section 8), then restored during recovery.
type State interface {
	// Apply executes an update operation, mutating the state, and
	// returns the operation's return value (computed on the state
	// immediately after the update, per the paper's compute contract).
	Apply(op Op) uint64
	// Read executes a read-only operation (no mutation).
	Read(op Op) uint64
	// Clone returns an independent deep copy.
	Clone() State
	// AppendSnapshot appends the state's serialization to dst and
	// returns the extended slice, leaving dst's existing words intact.
	// It is the state's one encoder: it must not allocate beyond growing
	// dst, so a caller that keeps its buffer (core's chain-base cuts)
	// encodes a state of unchanged size with no allocation at all.
	AppendSnapshot(dst []uint64) []uint64
	// Snapshot returns AppendSnapshot's words in a fresh slice.
	Snapshot() []uint64
	// Restore replaces the state with a previously snapshotted one. It
	// must not retain words: core restores views from base bodies it
	// later overwrites.
	Restore(words []uint64) error
}

// Copier is an optional State extension: CopyFrom replaces the receiver
// with a deep copy of src (which must be a state of the same spec),
// reusing the receiver's existing storage where possible. It is the
// allocation-light alternative to Clone for a destination state that is
// overwritten over and over. States that do not implement it are copied
// through Snapshot/Restore instead.
type Copier interface {
	CopyFrom(src State)
}

// Sizer is an optional State extension paired with Copier: SizeHint
// returns the approximate size of the state in 64-bit words — the
// volume one Copy into a same-shaped receiver moves. It must be O(1)
// and allocation-free: core's delta-cut policy consults it after every
// update to pace cuts and to decide when a delta chain has outgrown the
// state (deltacompact.go). The hint is an estimate (capacity vs live
// entries, table overheads), not a wire format; only its magnitude
// matters.
type Sizer interface {
	SizeHint() int
}

// SizeHint returns st's size hint in words, or 0 when st does not
// implement Sizer (callers must treat 0 as "unknown", never as
// "empty" — an empty sized state still reports its fixed overhead).
func SizeHint(st State) int {
	if s, ok := st.(Sizer); ok {
		return s.SizeHint()
	}
	return 0
}

// DeltaEmitter is an optional State extension for delta-chain
// compaction (DESIGN.md §3.8): EmitDelta appends to dst a compact
// object-specific diff covering exactly the effect of ops — the updates
// applied to this state since the chain's previous cut — and returns
// the extended slice with ok true. The receiver is the state AFTER ops
// have been applied, so emitters typically dedupe the keys ops touched
// and serialize their current values (or tombstones). Returning ok
// false declines this particular delta (e.g. the op mix contains a code
// the emitter cannot summarize); the caller then falls back to the
// universal op-replay encoding. The emitted words must round-trip
// through the paired DeltaApplier: applying them to any state that has
// seen the same prefix must yield a state Equal to the receiver.
//
// Like Snapshot, the emitted diff must be deterministic — two states
// reached by the same update sequence must emit identical words for the
// same ops. EmitDelta must not mutate the state and should not allocate
// beyond growing dst.
type DeltaEmitter interface {
	EmitDelta(dst []uint64, ops []Op) ([]uint64, bool)
}

// DeltaApplier is the restore-side pair of DeltaEmitter: ApplyDelta
// folds an emitted diff into the state (which holds the chain prefix up
// to the delta's predecessor). It validates the words as untrusted
// input — a corrupt diff must return an error, never panic or silently
// misapply. States implementing DeltaEmitter must implement
// DeltaApplier too; recovery checks for the pair together.
type DeltaApplier interface {
	ApplyDelta(words []uint64) error
}

// Copy replaces dst's contents with src's, via Copier when dst supports
// it and through the snapshot wire format otherwise.
func Copy(dst, src State) {
	if c, ok := dst.(Copier); ok {
		c.CopyFrom(src)
		return
	}
	if err := dst.Restore(src.Snapshot()); err != nil {
		panic(fmt.Sprintf("spec: Copy via snapshot failed: %v", err))
	}
}

// Spec is a deterministic sequential object specification: a name and a
// constructor for the state immediately after INITIALIZE.
type Spec interface {
	Name() string
	New() State
}

// Replay applies ops in order to a fresh state and returns it, along with
// the return value of the last op (RetOK for an empty sequence). It is
// the reference "state = sequence of updates" evaluator used by tests
// and checkers.
func Replay(s Spec, ops []Op) (State, uint64) {
	st := s.New()
	ret := RetOK
	for _, op := range ops {
		ret = st.Apply(op)
	}
	return st, ret
}

// Equal reports whether two states serialize identically.
func Equal(a, b State) bool {
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
