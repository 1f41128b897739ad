// Package objects ships deterministic sequential specifications
// (spec.Spec implementations) for the shared objects used throughout the
// experiments: the paper's running-example counter (Section 3.3) plus a
// register, stack, queue, deque, set, key-value map, priority queue,
// append-only log and a bank ledger. Each object defines its opcodes,
// classifies them as update or read-only, and provides deterministic
// snapshot/restore so it can participate in the compaction extension of
// Section 8.
package objects

import (
	"fmt"
	"slices"

	"repro/internal/spec"
)

// Kind identifies whether an opcode is an update or a read-only
// operation. The universal construction needs this classification: only
// updates enter the execution trace and the persistent logs.
type Kind int

const (
	// KindUpdate operations influence the results of later operations.
	KindUpdate Kind = iota
	// KindRead operations never influence later operations.
	KindRead
)

// OpInfo describes one opcode of an object.
type OpInfo struct {
	Code uint64
	Name string
	Kind Kind
	// Arity is the number of meaningful argument words (for generators).
	Arity int
}

// Describer is implemented by specs that can enumerate their opcodes;
// the workload generators and the linearizability checker use it.
type Describer interface {
	Ops() []OpInfo
}

// snapshotHeaderMismatch builds the common restore error.
func snapshotHeaderMismatch(name string, want, got uint64) error {
	return fmt.Errorf("objects: %s snapshot tag mismatch: want %#x got %#x", name, want, got)
}

// Each object's snapshot begins with a distinct tag word so that a
// snapshot restored into the wrong object type fails loudly.
const (
	tagCounter  = 0xC0DE0001
	tagRegister = 0xC0DE0002
	tagStack    = 0xC0DE0003
	tagQueue    = 0xC0DE0004
	tagDeque    = 0xC0DE0005
	tagSet      = 0xC0DE0006
	tagMap      = 0xC0DE0007
	tagPQ       = 0xC0DE0008
	tagLog      = 0xC0DE0009
	tagBank     = 0xC0DE000A
)

// snapshotOf is every state's Snapshot: its one encoder,
// AppendSnapshot, into a slice pre-sized from its SizeHint. Every hint
// covers the snapshot's words but its two-word header, so the encoder
// never grows the slice.
func snapshotOf(s spec.State) []uint64 {
	return s.AppendSnapshot(make([]uint64, 0, spec.SizeHint(s)+2))
}

// ---------------------------------------------------------------------
// Counter — the paper's running example (Section 3.3).
// ---------------------------------------------------------------------

// Counter opcodes.
const (
	CounterInc uint64 = iota + 1 // update: value++; returns new value
	CounterAdd                   // update: value += arg0; returns new value
	CounterGet                   // read: returns value
)

// CounterSpec is the shared counter of Section 3.3.
type CounterSpec struct{}

func (CounterSpec) Name() string    { return "counter" }
func (CounterSpec) New() spec.State { return &counterState{} }
func (CounterSpec) Ops() []OpInfo {
	return []OpInfo{
		{CounterInc, "inc", KindUpdate, 0},
		{CounterAdd, "add", KindUpdate, 1},
		{CounterGet, "get", KindRead, 0},
	}
}

type counterState struct{ v uint64 }

func (s *counterState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case CounterInc:
		s.v++
		return s.v
	case CounterAdd:
		s.v += op.Args[0]
		return s.v
	}
	panic(fmt.Sprintf("counter: bad update opcode %d", op.Code))
}

func (s *counterState) Read(op spec.Op) uint64 {
	if op.Code != CounterGet {
		panic(fmt.Sprintf("counter: bad read opcode %d", op.Code))
	}
	return s.v
}

func (s *counterState) Clone() spec.State { c := *s; return &c }

func (s *counterState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *counterState) AppendSnapshot(dst []uint64) []uint64 {
	return append(dst, tagCounter, s.v)
}

func (s *counterState) Restore(w []uint64) error {
	if len(w) != 2 || w[0] != tagCounter {
		return snapshotHeaderMismatch("counter", tagCounter, first(w))
	}
	s.v = w[1]
	return nil
}

func first(w []uint64) uint64 {
	if len(w) == 0 {
		return 0
	}
	return w[0]
}

// ---------------------------------------------------------------------
// Register — a single read/write cell. Its Write is idempotent
// (H·op ≡ H·op·op), which is exactly Case 2 of the lower-bound proof
// (Theorem 6.3); the lower-bound experiment uses it for that reason.
// ---------------------------------------------------------------------

// Register opcodes.
const (
	RegisterWrite uint64 = iota + 1 // update: value = arg0; returns old value
	RegisterRead                    // read: returns value
)

// RegisterSpec is a single word-sized read/write register.
type RegisterSpec struct{}

func (RegisterSpec) Name() string    { return "register" }
func (RegisterSpec) New() spec.State { return &registerState{} }
func (RegisterSpec) Ops() []OpInfo {
	return []OpInfo{
		{RegisterWrite, "write", KindUpdate, 1},
		{RegisterRead, "read", KindRead, 0},
	}
}

type registerState struct{ v uint64 }

func (s *registerState) Apply(op spec.Op) uint64 {
	if op.Code != RegisterWrite {
		panic(fmt.Sprintf("register: bad update opcode %d", op.Code))
	}
	old := s.v
	s.v = op.Args[0]
	return old
}

func (s *registerState) Read(op spec.Op) uint64 {
	if op.Code != RegisterRead {
		panic(fmt.Sprintf("register: bad read opcode %d", op.Code))
	}
	return s.v
}

func (s *registerState) Clone() spec.State  { c := *s; return &c }
func (s *registerState) Snapshot() []uint64 { return snapshotOf(s) }
func (s *registerState) AppendSnapshot(dst []uint64) []uint64 {
	return append(dst, tagRegister, s.v)
}
func (s *registerState) Restore(w []uint64) error {
	if len(w) != 2 || w[0] != tagRegister {
		return snapshotHeaderMismatch("register", tagRegister, first(w))
	}
	s.v = w[1]
	return nil
}

// ---------------------------------------------------------------------
// Stack.
// ---------------------------------------------------------------------

// Stack opcodes.
const (
	StackPush uint64 = iota + 1 // update: push arg0; returns new depth
	StackPop                    // update: pop; returns value or RetEmpty
	StackPeek                   // read: top value or RetEmpty
	StackLen                    // read: depth
)

// StackSpec is a LIFO stack of words.
type StackSpec struct{}

func (StackSpec) Name() string    { return "stack" }
func (StackSpec) New() spec.State { return &stackState{} }
func (StackSpec) Ops() []OpInfo {
	return []OpInfo{
		{StackPush, "push", KindUpdate, 1},
		{StackPop, "pop", KindUpdate, 0},
		{StackPeek, "peek", KindRead, 0},
		{StackLen, "len", KindRead, 0},
	}
}

type stackState struct{ xs []uint64 }

func (s *stackState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case StackPush:
		s.xs = append(s.xs, op.Args[0])
		return uint64(len(s.xs))
	case StackPop:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		v := s.xs[len(s.xs)-1]
		s.xs = s.xs[:len(s.xs)-1]
		return v
	}
	panic(fmt.Sprintf("stack: bad update opcode %d", op.Code))
}

func (s *stackState) Read(op spec.Op) uint64 {
	switch op.Code {
	case StackPeek:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		return s.xs[len(s.xs)-1]
	case StackLen:
		return uint64(len(s.xs))
	}
	panic(fmt.Sprintf("stack: bad read opcode %d", op.Code))
}

func (s *stackState) Clone() spec.State {
	c := &stackState{xs: make([]uint64, len(s.xs))}
	copy(c.xs, s.xs)
	return c
}

func (s *stackState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *stackState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagStack, uint64(len(s.xs)))
	return append(dst, s.xs...)
}

func (s *stackState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagStack || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("stack", tagStack, first(w))
	}
	s.xs = append(s.xs[:0], w[2:]...)
	return nil
}

// ---------------------------------------------------------------------
// Queue.
// ---------------------------------------------------------------------

// Queue opcodes.
const (
	QueueEnq   uint64 = iota + 1 // update: enqueue arg0; returns new length
	QueueDeq                     // update: dequeue; returns value or RetEmpty
	QueueFront                   // read: front value or RetEmpty
	QueueLen                     // read: length
)

// QueueSpec is a FIFO queue of words.
type QueueSpec struct{}

func (QueueSpec) Name() string    { return "queue" }
func (QueueSpec) New() spec.State { return &queueState{} }
func (QueueSpec) Ops() []OpInfo {
	return []OpInfo{
		{QueueEnq, "enq", KindUpdate, 1},
		{QueueDeq, "deq", KindUpdate, 0},
		{QueueFront, "front", KindRead, 0},
		{QueueLen, "len", KindRead, 0},
	}
}

type queueState struct {
	xs   []uint64
	head int
}

func (s *queueState) size() int { return len(s.xs) - s.head }

func (s *queueState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case QueueEnq:
		s.xs = append(s.xs, op.Args[0])
		return uint64(s.size())
	case QueueDeq:
		if s.size() == 0 {
			return spec.RetEmpty
		}
		v := s.xs[s.head]
		s.head++
		if s.head > 64 && s.head*2 > len(s.xs) {
			s.xs = append([]uint64(nil), s.xs[s.head:]...)
			s.head = 0
		}
		return v
	}
	panic(fmt.Sprintf("queue: bad update opcode %d", op.Code))
}

func (s *queueState) Read(op spec.Op) uint64 {
	switch op.Code {
	case QueueFront:
		if s.size() == 0 {
			return spec.RetEmpty
		}
		return s.xs[s.head]
	case QueueLen:
		return uint64(s.size())
	}
	panic(fmt.Sprintf("queue: bad read opcode %d", op.Code))
}

func (s *queueState) Clone() spec.State {
	c := &queueState{xs: append([]uint64(nil), s.xs[s.head:]...)}
	return c
}

func (s *queueState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *queueState) AppendSnapshot(dst []uint64) []uint64 {
	live := s.xs[s.head:]
	dst = append(dst, tagQueue, uint64(len(live)))
	return append(dst, live...)
}

func (s *queueState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagQueue || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("queue", tagQueue, first(w))
	}
	s.xs = append([]uint64(nil), w[2:]...)
	s.head = 0
	return nil
}

// ---------------------------------------------------------------------
// Deque.
// ---------------------------------------------------------------------

// Deque opcodes.
const (
	DequePushFront uint64 = iota + 1 // update
	DequePushBack                    // update
	DequePopFront                    // update: value or RetEmpty
	DequePopBack                     // update: value or RetEmpty
	DequeFront                       // read
	DequeBack                        // read
	DequeLen                         // read
)

// DequeSpec is a double-ended queue of words.
type DequeSpec struct{}

func (DequeSpec) Name() string    { return "deque" }
func (DequeSpec) New() spec.State { return &dequeState{} }
func (DequeSpec) Ops() []OpInfo {
	return []OpInfo{
		{DequePushFront, "pushf", KindUpdate, 1},
		{DequePushBack, "pushb", KindUpdate, 1},
		{DequePopFront, "popf", KindUpdate, 0},
		{DequePopBack, "popb", KindUpdate, 0},
		{DequeFront, "front", KindRead, 0},
		{DequeBack, "back", KindRead, 0},
		{DequeLen, "len", KindRead, 0},
	}
}

type dequeState struct{ xs []uint64 }

func (s *dequeState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case DequePushFront:
		s.xs = append([]uint64{op.Args[0]}, s.xs...)
		return uint64(len(s.xs))
	case DequePushBack:
		s.xs = append(s.xs, op.Args[0])
		return uint64(len(s.xs))
	case DequePopFront:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		v := s.xs[0]
		s.xs = s.xs[1:]
		return v
	case DequePopBack:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		v := s.xs[len(s.xs)-1]
		s.xs = s.xs[:len(s.xs)-1]
		return v
	}
	panic(fmt.Sprintf("deque: bad update opcode %d", op.Code))
}

func (s *dequeState) Read(op spec.Op) uint64 {
	switch op.Code {
	case DequeFront:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		return s.xs[0]
	case DequeBack:
		if len(s.xs) == 0 {
			return spec.RetEmpty
		}
		return s.xs[len(s.xs)-1]
	case DequeLen:
		return uint64(len(s.xs))
	}
	panic(fmt.Sprintf("deque: bad read opcode %d", op.Code))
}

func (s *dequeState) Clone() spec.State {
	return &dequeState{xs: append([]uint64(nil), s.xs...)}
}

func (s *dequeState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *dequeState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagDeque, uint64(len(s.xs)))
	return append(dst, s.xs...)
}

func (s *dequeState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagDeque || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("deque", tagDeque, first(w))
	}
	s.xs = append([]uint64(nil), w[2:]...)
	return nil
}

// ---------------------------------------------------------------------
// Set.
// ---------------------------------------------------------------------

// Set opcodes.
const (
	SetAdd      uint64 = iota + 1 // update: returns RetOK if added, RetFail if present
	SetRemove                     // update: returns RetOK if removed, RetFail if absent
	SetContains                   // read: 1 or 0
	SetLen                        // read
)

// SetSpec is a set of words.
type SetSpec struct{}

func (SetSpec) Name() string    { return "set" }
func (SetSpec) New() spec.State { return &setState{t: newDenseTable(false, 0)} }
func (SetSpec) Ops() []OpInfo {
	return []OpInfo{
		{SetAdd, "add", KindUpdate, 1},
		{SetRemove, "remove", KindUpdate, 1},
		{SetContains, "contains", KindRead, 1},
		{SetLen, "len", KindRead, 0},
	}
}

// setState is backed by an open-addressed dense table so steady-state
// Apply (add of a present key, remove, contains) never allocates; only
// amortized growth does. The snapshot wire format (tag, count, sorted
// keys) is unchanged from the map-backed representation.
type setState struct{ t *denseTable }

func (s *setState) Apply(op spec.Op) uint64 {
	k := op.Args[0]
	switch op.Code {
	case SetAdd:
		if _, existed := s.t.put(k, 0); existed {
			return spec.RetFail
		}
		return spec.RetOK
	case SetRemove:
		if _, existed := s.t.del(k); !existed {
			return spec.RetFail
		}
		return spec.RetOK
	}
	panic(fmt.Sprintf("set: bad update opcode %d", op.Code))
}

func (s *setState) Read(op spec.Op) uint64 {
	switch op.Code {
	case SetContains:
		if s.t.has(op.Args[0]) {
			return 1
		}
		return 0
	case SetLen:
		return uint64(s.t.live)
	}
	panic(fmt.Sprintf("set: bad read opcode %d", op.Code))
}

func (s *setState) Clone() spec.State { return &setState{t: s.t.clone()} }

func (s *setState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *setState) AppendSnapshot(dst []uint64) []uint64 {
	return s.t.appendSnapshot(append(dst, tagSet, uint64(s.t.live)))
}

func (s *setState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagSet || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("set", tagSet, first(w))
	}
	s.t.reset(false, len(w)-2)
	for _, k := range w[2:] {
		s.t.put(k, 0)
	}
	return nil
}

// ---------------------------------------------------------------------
// Map (key-value store).
// ---------------------------------------------------------------------

// Map opcodes.
const (
	MapPut uint64 = iota + 1 // update: m[arg0]=arg1; returns old value or RetMissing
	MapDel                   // update: delete arg0; returns old value or RetMissing
	MapCAS                   // update: if m[arg0]==arg1 then m[arg0]=arg2 (RetOK) else RetFail
	MapGet                   // read: value or RetMissing
	MapLen                   // read
)

// MapSpec is a word-to-word hash map (the KV-store example builds on it).
type MapSpec struct{}

func (MapSpec) Name() string    { return "map" }
func (MapSpec) New() spec.State { return &mapState{t: newDenseTable(true, 0)} }
func (MapSpec) Ops() []OpInfo {
	return []OpInfo{
		{MapPut, "put", KindUpdate, 2},
		{MapDel, "del", KindUpdate, 1},
		{MapCAS, "cas", KindUpdate, 3},
		{MapGet, "get", KindRead, 1},
		{MapLen, "len", KindRead, 0},
	}
}

// mapState is backed by an open-addressed dense table (see dense.go):
// gets, overwrites, deletes and CASes allocate nothing, inserts only on
// amortized growth. Snapshot format (tag, count, sorted pairs) matches
// the previous map-backed representation word for word.
type mapState struct{ t *denseTable }

func (s *mapState) Apply(op spec.Op) uint64 {
	k := op.Args[0]
	switch op.Code {
	case MapPut:
		old, existed := s.t.put(k, op.Args[1])
		if !existed {
			return spec.RetMissing
		}
		return old
	case MapDel:
		old, existed := s.t.del(k)
		if !existed {
			return spec.RetMissing
		}
		return old
	case MapCAS:
		cur, _ := s.t.get(k) // absent key reads as 0, as with a Go map
		if cur != op.Args[1] {
			return spec.RetFail
		}
		s.t.put(k, op.Args[2])
		return spec.RetOK
	}
	panic(fmt.Sprintf("map: bad update opcode %d", op.Code))
}

func (s *mapState) Read(op spec.Op) uint64 {
	switch op.Code {
	case MapGet:
		v, ok := s.t.get(op.Args[0])
		if !ok {
			return spec.RetMissing
		}
		return v
	case MapLen:
		return uint64(s.t.live)
	}
	panic(fmt.Sprintf("map: bad read opcode %d", op.Code))
}

func (s *mapState) Clone() spec.State { return &mapState{t: s.t.clone()} }

func (s *mapState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *mapState) AppendSnapshot(dst []uint64) []uint64 {
	return s.t.appendSnapshot(append(dst, tagMap, uint64(s.t.live)))
}

func (s *mapState) Restore(w []uint64) error {
	// The claimed pair count is validated against the actual word count
	// without the 2*w[1] multiplication, which overflowed for counts near
	// 2^63 and accepted corrupt headers (then panicked building the
	// state).
	if len(w) < 2 || w[0] != tagMap || w[1] != uint64(len(w)-2)/2 || (len(w)-2)%2 != 0 {
		return snapshotHeaderMismatch("map", tagMap, first(w))
	}
	s.t.reset(true, int(w[1]))
	for i := 2; i < len(w); i += 2 {
		s.t.put(w[i], w[i+1])
	}
	return nil
}

// ---------------------------------------------------------------------
// Priority queue (min-heap).
// ---------------------------------------------------------------------

// Priority queue opcodes.
const (
	PQInsert     uint64 = iota + 1 // update: insert arg0; returns new size
	PQExtractMin                   // update: returns min or RetEmpty
	PQMin                          // read: min or RetEmpty
	PQLen                          // read
)

// PQSpec is a min-priority queue of words.
type PQSpec struct{}

func (PQSpec) Name() string    { return "pqueue" }
func (PQSpec) New() spec.State { return &pqState{} }
func (PQSpec) Ops() []OpInfo {
	return []OpInfo{
		{PQInsert, "insert", KindUpdate, 1},
		{PQExtractMin, "extractmin", KindUpdate, 0},
		{PQMin, "min", KindRead, 0},
		{PQLen, "len", KindRead, 0},
	}
}

type pqState struct{ h []uint64 }

func (s *pqState) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.h[p] <= s.h[i] {
			return
		}
		s.h[p], s.h[i] = s.h[i], s.h[p]
		i = p
	}
}

func (s *pqState) down(i int) {
	n := len(s.h)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.h[l] < s.h[m] {
			m = l
		}
		if r < n && s.h[r] < s.h[m] {
			m = r
		}
		if m == i {
			return
		}
		s.h[i], s.h[m] = s.h[m], s.h[i]
		i = m
	}
}

func (s *pqState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case PQInsert:
		s.h = append(s.h, op.Args[0])
		s.up(len(s.h) - 1)
		return uint64(len(s.h))
	case PQExtractMin:
		if len(s.h) == 0 {
			return spec.RetEmpty
		}
		v := s.h[0]
		last := len(s.h) - 1
		s.h[0] = s.h[last]
		s.h = s.h[:last]
		if last > 0 {
			s.down(0)
		}
		return v
	}
	panic(fmt.Sprintf("pqueue: bad update opcode %d", op.Code))
}

func (s *pqState) Read(op spec.Op) uint64 {
	switch op.Code {
	case PQMin:
		if len(s.h) == 0 {
			return spec.RetEmpty
		}
		return s.h[0]
	case PQLen:
		return uint64(len(s.h))
	}
	panic(fmt.Sprintf("pqueue: bad read opcode %d", op.Code))
}

func (s *pqState) Clone() spec.State {
	return &pqState{h: append([]uint64(nil), s.h...)}
}

func (s *pqState) Snapshot() []uint64 { return snapshotOf(s) }

// AppendSnapshot stores the elements in sorted order so that two heaps
// with the same contents (but different internal shapes reached via
// different op orders... which cannot happen for a deterministic object,
// but sorting is cheap insurance) serialize identically. The sort
// happens in place in dst, with no scratch copy.
func (s *pqState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagPQ, uint64(len(s.h)))
	start := len(dst)
	dst = append(dst, s.h...)
	slices.Sort(dst[start:])
	return dst
}

func (s *pqState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagPQ || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("pqueue", tagPQ, first(w))
	}
	// A sorted slice is already a valid min-heap. The preallocated
	// backing array is reused when it is large enough.
	s.h = append(s.h[:0], w[2:]...)
	return nil
}

// ---------------------------------------------------------------------
// Append-only log.
// ---------------------------------------------------------------------

// Append-only log opcodes.
const (
	LogAppend uint64 = iota + 1 // update: append arg0; returns index
	LogAt                       // read: value at index arg0 or RetMissing
	LogLen                      // read
)

// LogSpec is an append-only sequence of words.
type LogSpec struct{}

func (LogSpec) Name() string    { return "applog" }
func (LogSpec) New() spec.State { return &logState{} }
func (LogSpec) Ops() []OpInfo {
	return []OpInfo{
		{LogAppend, "append", KindUpdate, 1},
		{LogAt, "at", KindRead, 1},
		{LogLen, "len", KindRead, 0},
	}
}

type logState struct{ xs []uint64 }

func (s *logState) Apply(op spec.Op) uint64 {
	if op.Code != LogAppend {
		panic(fmt.Sprintf("applog: bad update opcode %d", op.Code))
	}
	s.xs = append(s.xs, op.Args[0])
	return uint64(len(s.xs) - 1)
}

func (s *logState) Read(op spec.Op) uint64 {
	switch op.Code {
	case LogAt:
		i := op.Args[0]
		if i >= uint64(len(s.xs)) {
			return spec.RetMissing
		}
		return s.xs[i]
	case LogLen:
		return uint64(len(s.xs))
	}
	panic(fmt.Sprintf("applog: bad read opcode %d", op.Code))
}

func (s *logState) Clone() spec.State {
	return &logState{xs: append([]uint64(nil), s.xs...)}
}

func (s *logState) Snapshot() []uint64 { return snapshotOf(s) }

func (s *logState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagLog, uint64(len(s.xs)))
	return append(dst, s.xs...)
}

func (s *logState) Restore(w []uint64) error {
	if len(w) < 2 || w[0] != tagLog || uint64(len(w)-2) != w[1] {
		return snapshotHeaderMismatch("applog", tagLog, first(w))
	}
	s.xs = append([]uint64(nil), w[2:]...)
	return nil
}

// ---------------------------------------------------------------------
// Bank ledger — the invariant-rich object used by examples/bank: the sum
// of balances is preserved by transfers, so crash-recovery bugs show up
// as conservation violations.
// ---------------------------------------------------------------------

// Bank opcodes.
const (
	BankDeposit  uint64 = iota + 1 // update: acct arg0 += arg1; returns new balance
	BankWithdraw                   // update: acct arg0 -= arg1 if covered; RetFail on overdraft
	BankTransfer                   // update: arg0 -> arg1 amount arg2; RetOK/RetFail
	BankBalance                    // read: balance of arg0
	BankTotal                      // read: sum of all balances
	BankAccounts                   // read: number of accounts with nonzero balance
)

// BankSpec is a ledger of account balances.
type BankSpec struct{}

func (BankSpec) Name() string    { return "bank" }
func (BankSpec) New() spec.State { return &bankState{m: map[uint64]uint64{}} }
func (BankSpec) Ops() []OpInfo {
	return []OpInfo{
		{BankDeposit, "deposit", KindUpdate, 2},
		{BankWithdraw, "withdraw", KindUpdate, 2},
		{BankTransfer, "transfer", KindUpdate, 3},
		{BankBalance, "balance", KindRead, 1},
		{BankTotal, "total", KindRead, 0},
		{BankAccounts, "accounts", KindRead, 0},
	}
}

type bankState struct{ m map[uint64]uint64 }

func (s *bankState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case BankDeposit:
		s.m[op.Args[0]] += op.Args[1]
		return s.m[op.Args[0]]
	case BankWithdraw:
		a, amt := op.Args[0], op.Args[1]
		if s.m[a] < amt {
			return spec.RetFail
		}
		s.m[a] -= amt
		if s.m[a] == 0 {
			delete(s.m, a)
		}
		return amt
	case BankTransfer:
		from, to, amt := op.Args[0], op.Args[1], op.Args[2]
		if from == to || s.m[from] < amt {
			return spec.RetFail
		}
		s.m[from] -= amt
		if s.m[from] == 0 {
			delete(s.m, from)
		}
		s.m[to] += amt
		return spec.RetOK
	}
	panic(fmt.Sprintf("bank: bad update opcode %d", op.Code))
}

func (s *bankState) Read(op spec.Op) uint64 {
	switch op.Code {
	case BankBalance:
		return s.m[op.Args[0]]
	case BankTotal:
		var t uint64
		for _, v := range s.m {
			t += v
		}
		return t
	case BankAccounts:
		return uint64(len(s.m))
	}
	panic(fmt.Sprintf("bank: bad read opcode %d", op.Code))
}

func (s *bankState) Clone() spec.State {
	c := &bankState{m: make(map[uint64]uint64, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

func (s *bankState) Snapshot() []uint64 { return snapshotOf(s) }

// AppendSnapshot writes the accounts in ascending order: the keys are
// sorted in place in dst, then spread into (key, balance) pairs from
// the back, where pair i's slots 2i and 2i+1 are at or above key i and
// every key below i is still unread.
func (s *bankState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagBank, uint64(len(s.m)))
	start := len(dst)
	for k := range s.m {
		dst = append(dst, k)
	}
	slices.Sort(dst[start:])
	n := len(s.m)
	dst = slices.Grow(dst, n)[:start+2*n]
	for i := n - 1; i >= 0; i-- {
		k := dst[start+i]
		dst[start+2*i], dst[start+2*i+1] = k, s.m[k]
	}
	return dst
}

func (s *bankState) Restore(w []uint64) error {
	// Pair count validated without the overflowing 2*w[1] product (see
	// mapState.Restore).
	if len(w) < 2 || w[0] != tagBank || w[1] != uint64(len(w)-2)/2 || (len(w)-2)%2 != 0 {
		return snapshotHeaderMismatch("bank", tagBank, first(w))
	}
	s.m = make(map[uint64]uint64, w[1])
	for i := 2; i < len(w); i += 2 {
		s.m[w[i]] = w[i+1]
	}
	return nil
}

// All returns every spec shipped by this package (used by table-driven
// tests and the experiment harness).
func All() []spec.Spec {
	return []spec.Spec{
		CounterSpec{}, RegisterSpec{}, StackSpec{}, QueueSpec{},
		DequeSpec{}, SetSpec{}, MapSpec{}, PQSpec{}, LogSpec{}, BankSpec{},
		OrderedMapSpec{},
	}
}

// IsUpdate reports whether code is an update opcode of s, using the
// Describer interface. It panics if s does not describe its ops or the
// code is unknown.
func IsUpdate(s spec.Spec, code uint64) bool {
	d, ok := s.(Describer)
	if !ok {
		panic(fmt.Sprintf("objects: spec %q does not enumerate ops", s.Name()))
	}
	for _, oi := range d.Ops() {
		if oi.Code == code {
			return oi.Kind == KindUpdate
		}
	}
	panic(fmt.Sprintf("objects: spec %q has no opcode %d", s.Name(), code))
}
