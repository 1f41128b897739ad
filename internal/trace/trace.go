// Package trace implements the transient execution trace of the paper
// (Section 4.1.2, Listing 2): a lock-free, backward-linked list of update
// operations, ordered by a CAS on the tail, where each node carries an
// execution index and an available flag.
//
// The sequence of nodes is partitioned into a non-fuzzy prefix and a
// fuzzy window (Figure 2): the fuzzy window spans from the latest node
// down to (but not including) the latest node whose available flag is
// set. Proposition 5.2 guarantees the fuzzy window never exceeds
// MAX_PROCESSES nodes, which makes GetFuzzyOpsInto and LatestAvailableFrom
// wait-free. (core's batches keep several nodes of one process pending
// at once and bound the window by the log's per-record op bound
// instead.)
//
// The trace is deliberately volatile: it lives in ordinary Go memory, is
// lost on a crash, and is reconstructed from the persistent logs by
// recovery (Listing 5). Read-only operations never write to it.
//
// Two implementations are provided: LockFree (the paper's Listing 2) and
// WaitFree (the Section 8 extension, using phase-based helping in the
// style of Kogan & Petrank so that a stalled inserter is finished by its
// peers).
package trace

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/spec"
)

// NodeKind distinguishes ordinary update nodes from compaction bases.
type NodeKind uint8

const (
	// KindInit is the sentinel INITIALIZE node (paper Listing 2: the
	// initial tail, which "also serves as a sentinel").
	KindInit NodeKind = iota
	// KindUpdate is a node created by an update operation.
	KindUpdate
	// KindBase is a compaction base (Section 8): a node carrying a
	// state snapshot that stands for the entire prefix up to its index.
	// Bases are always available.
	KindBase
)

// Node is one entry of the execution trace (paper Listing 2 queueNode).
// next points toward the HEAD (i.e. to the node inserted just before
// this one); traversals therefore run from the tail backward in time.
// idx and next are atomics because the wait-free inserter's helpers may
// write them concurrently (always with identical values).
type Node struct {
	Op   spec.Op
	Kind NodeKind
	// Snap (KindBase only) is the state snapshot standing for the
	// prefix up to the base's index; Seqs (KindBase only) records, per
	// process id, the highest per-process operation sequence number
	// folded into the snapshot — recovery needs it to keep detectable
	// execution working across compaction.
	Snap      []uint64
	Seqs      []uint64
	idx       atomic.Uint64
	available atomic.Bool
	next      atomic.Pointer[Node]

	// Wait-free insertion protocol fields (see WaitFree).
	pred atomic.Pointer[Node]
	succ atomic.Pointer[Node]
}

// NewNode returns a fresh update node for op, unavailable and unlinked.
func NewNode(op spec.Op) *Node {
	return &Node{Op: op, Kind: KindUpdate}
}

// NewBase returns a compaction base standing for the state snap at
// execution index idx; seqs is the per-process covered-sequence vector
// (may be nil for bases that do not track detectability). Bases are
// available by construction.
func NewBase(idx uint64, snap, seqs []uint64) *Node {
	n := &Node{Kind: KindBase, Snap: snap, Seqs: seqs}
	n.idx.Store(idx)
	n.available.Store(true)
	return n
}

// newSentinel returns the INITIALIZE sentinel (index 0, available).
func newSentinel() *Node {
	n := &Node{Kind: KindInit}
	n.available.Store(true)
	return n
}

// Reinit re-initializes a dead update node so a pool can hand it out in
// place of NewNode. The caller must own n exclusively: n is the
// caller's own node, a base spliced above it makes it unreachable from
// the live trace, and no in-flight walk can still dereference it (core
// enforces this with the cut index and published per-handle walk
// floors; see Handle.newNode). The stores are plain, as NewNode's are:
// the Insert that publishes n orders them before any reader finds it.
// Atomic stores would each be a full fence on amd64, on every update
// that reuses a node.
func (n *Node) Reinit(op spec.Op) {
	*n = Node{Op: op, Kind: KindUpdate}
}

// Idx returns the node's execution index.
func (n *Node) Idx() uint64 { return n.idx.Load() }

// Available reports whether the node's available flag is set.
func (n *Node) Available() bool { return n.available.Load() }

// Next returns the node inserted immediately before n (toward the head),
// or nil for the sentinel / a base.
func (n *Node) Next() *Node { return n.next.Load() }

// SetNextBase cuts the trace behind n (compaction, Section 8): n's
// predecessor chain is replaced by base, which must carry the state at
// index n.Idx() (or n.Idx()-1 plus n's own op replayed, depending on the
// caller's convention — core uses base.Idx == n.Idx). Walkers already
// past n keep their immutable view; new walkers stop at the base.
func (n *Node) SetNextBase(base *Node) {
	if base.Kind != KindBase {
		panic("trace: SetNextBase requires a KindBase node")
	}
	n.next.Store(base)
}

func (n *Node) String() string {
	return fmt.Sprintf("node{idx=%d kind=%d avail=%v op=%v}", n.Idx(), n.Kind, n.Available(), n.Op)
}

// Interface is the execution-trace contract the universal construction
// depends on; LockFree and WaitFree both implement it.
type Interface interface {
	// Insert links node at the tail, assigning its execution index
	// (paper Listing 2 insert). The node becomes visible to traversals
	// immediately, with its available flag unset.
	Insert(pid int, node *Node)
	// Tail returns the current tail (the latest inserted node, which
	// may be in the fuzzy window).
	Tail(pid int) *Node
	// SetAvailable sets node's available flag (the linearize step;
	// paper Listing 3 line 7) and bumps the trace's publication epoch.
	SetAvailable(pid int, node *Node)
	// Epoch returns the publication epoch: a monotonic counter bumped
	// after every SetAvailable. A reader that cached a view after
	// loading epoch E is guaranteed, on observing Epoch() == E again,
	// that no operation has been published in between — its cached view
	// is still the latest available prefix, and it can skip the trace
	// walk entirely (core's read fast path). The bump is ordered after
	// the available store and Epoch is loaded before the tail read, so
	// with sequentially consistent atomics an operation whose bump is
	// covered by E is always found by a walk that follows the load.
	Epoch(pid int) uint64
	// Sentinel returns the INITIALIZE node the trace was created with.
	Sentinel() *Node
}

// GetFuzzyOpsInto collects the operations of the fuzzy nodes from n
// backward into buf[:0]: n itself and every predecessor with an unset
// available flag, stopping at the first available node (paper Listing 2
// getFuzzyOps). ops[0] is n's own operation; ops[k] has execution index
// n.Idx()-k. It is the one walk that assembles a log record: core's
// commit runs it from an update's node and from a batch's last staged
// node alike. By Proposition 5.2 the result has at most MAX_PROCESSES
// entries (a batch's own staged nodes add to that, within the log's
// per-record bound), so a caller replaying in a loop can reuse one
// scratch buffer and stay allocation-free once it has grown to that
// bound.
//
//onll:hotpath
func GetFuzzyOpsInto(buf []spec.Op, gate sched.Gate, pid int, n *Node) []spec.Op {
	ops := buf[:0]
	for cur := n; ; {
		gate.Step(pid, "trace.scan")
		if cur.available.Load() {
			break
		}
		ops = append(ops, cur.Op)
		cur = cur.next.Load()
	}
	return ops
}

// LatestAvailableFrom walks from n toward the head and returns the first
// node with a set available flag (paper Listing 2 latestAvailable). As
// the paper notes, the result is the latest OBSERVED available node,
// which may momentarily not be the true latest; ONLL is correct despite
// this (Proposition 5.9).
//
//onll:hotpath
func LatestAvailableFrom(gate sched.Gate, pid int, n *Node) *Node {
	cur := n
	for {
		gate.Step(pid, "trace.scan")
		if cur.available.Load() {
			return cur
		}
		cur = cur.next.Load()
	}
}

// ---------------------------------------------------------------------
// LockFree — paper Listing 2.
// ---------------------------------------------------------------------

// LockFree is the paper's lock-free execution trace.
type LockFree struct {
	gate     sched.Gate
	sentinel *Node
	tail     atomic.Pointer[Node]
	epoch    atomic.Uint64
}

// NewLockFree returns an empty lock-free trace whose sentinel is the
// INITIALIZE operation at index 0.
func NewLockFree(gate sched.Gate) *LockFree {
	if gate == nil {
		gate = sched.NopGate{}
	}
	t := &LockFree{gate: gate, sentinel: newSentinel()}
	t.tail.Store(t.sentinel)
	return t
}

// NewLockFreeAt returns a trace whose sentinel is the given base node
// (used by recovery, where the trace restarts from a recovered snapshot).
func NewLockFreeAt(gate sched.Gate, base *Node) *LockFree {
	if gate == nil {
		gate = sched.NopGate{}
	}
	t := &LockFree{gate: gate, sentinel: base}
	t.tail.Store(base)
	return t
}

// Insert implements Interface (Listing 2 insert). The CAS on the tail is
// a concurrency fence but involves no NVM write-back, so it does not
// count as a persistent fence (paper footnote 2).
//
//onll:hotpath
func (t *LockFree) Insert(pid int, node *Node) {
	node.available.Store(false)
	for {
		t.gate.Step(pid, "trace.read-tail")
		lt := t.tail.Load()
		node.idx.Store(lt.Idx() + 1)
		node.next.Store(lt)
		t.gate.Step(pid, "trace.cas-tail")
		if t.tail.CompareAndSwap(lt, node) {
			return
		}
	}
}

// Tail implements Interface.
//
//onll:hotpath
func (t *LockFree) Tail(pid int) *Node {
	t.gate.Step(pid, "trace.read-tail")
	return t.tail.Load()
}

// SetAvailable implements Interface. The epoch bump is ordered after the
// available store: a reader whose Epoch load covers the bump is
// guaranteed to find node available on a subsequent walk.
//
//onll:hotpath
func (t *LockFree) SetAvailable(pid int, node *Node) {
	t.gate.Step(pid, "trace.set-available")
	node.available.Store(true)
	t.epoch.Add(1)
}

// Epoch implements Interface.
//
//onll:hotpath
func (t *LockFree) Epoch(pid int) uint64 {
	t.gate.Step(pid, "trace.epoch")
	return t.epoch.Load()
}

// Sentinel implements Interface.
func (t *LockFree) Sentinel() *Node { return t.sentinel }

// ---------------------------------------------------------------------
// WaitFree — Section 8 extension.
// ---------------------------------------------------------------------

// wfDesc describes one pending wait-free insert.
type wfDesc struct {
	phase   uint64
	node    *Node
	pending atomic.Bool
}

// WaitFree is a wait-free execution trace using phase-based helping: an
// inserter announces its node with a phase number and then helps every
// announced insert with a phase at most its own; a stalled process's
// insert is therefore completed by its peers in a bounded number of
// steps (Kogan–Petrank-style argument).
//
// The linking protocol makes helping safe on a tail-CAS list:
//
//  1. claim: node.pred CAS nil->lt, then lt.succ CAS nil->node.
//     lt.succ is claimed at most once, ever, so each node acquires at
//     most one successor and no node is inserted twice.
//  2. If the lt.succ claim fails (another node won lt), the pred claim
//     is rolled back and retried against the new tail. A rollback is
//     safe because a node is only IN the list once its predecessor's
//     succ points to it.
//  3. finish: set node.next/idx from the claimed predecessor and swing
//     the tail. Any helper can finish any claimed node (idempotent).
type WaitFree struct {
	gate     sched.Gate
	sentinel *Node
	tail     atomic.Pointer[Node]
	maxPhase atomic.Uint64
	epoch    atomic.Uint64
	nprocs   int
	state    []atomic.Pointer[wfDesc]
}

// NewWaitFree returns an empty wait-free trace for nprocs processes.
func NewWaitFree(gate sched.Gate, nprocs int) *WaitFree {
	return NewWaitFreeAt(gate, nprocs, newSentinel())
}

// NewWaitFreeAt returns a wait-free trace rooted at the given base node.
func NewWaitFreeAt(gate sched.Gate, nprocs int, base *Node) *WaitFree {
	if gate == nil {
		gate = sched.NopGate{}
	}
	if nprocs < 1 || nprocs > sched.MaxPids {
		panic(fmt.Sprintf("trace: bad nprocs %d", nprocs))
	}
	t := &WaitFree{
		gate: gate, sentinel: base, nprocs: nprocs,
		state: make([]atomic.Pointer[wfDesc], nprocs),
	}
	t.tail.Store(base)
	return t
}

// Insert implements Interface, wait-free.
func (t *WaitFree) Insert(pid int, node *Node) {
	if pid < 0 || pid >= t.nprocs {
		panic(fmt.Sprintf("trace: pid %d out of range for %d-process wait-free trace", pid, t.nprocs))
	}
	node.available.Store(false)
	d := &wfDesc{phase: t.maxPhase.Add(1), node: node}
	d.pending.Store(true)
	t.state[pid].Store(d)
	t.helpAll(pid, d.phase)
	if d.pending.Load() {
		// helpAll guarantees our own descriptor is completed.
		panic("trace: wait-free insert did not complete")
	}
}

// helpAll helps every announced insert with phase <= ph, own included.
func (t *WaitFree) helpAll(pid int, ph uint64) {
	for i := 0; i < t.nprocs; i++ {
		d := t.state[i].Load()
		if d != nil && d.pending.Load() && d.phase <= ph {
			t.helpInsert(pid, d)
		}
	}
}

func (t *WaitFree) helpInsert(pid int, d *wfDesc) {
	n := d.node
	for d.pending.Load() {
		t.gate.Step(pid, "trace.wf.help")
		// Already claimed by a predecessor? Then finish it.
		if p := n.pred.Load(); p != nil && p.succ.Load() == n {
			t.finish(p, n, d)
			continue
		}
		lt := t.tail.Load()
		if s := lt.succ.Load(); s != nil {
			// The tail has a claimed successor (ours or another's):
			// complete that insert first, advancing the tail.
			s.next.Store(lt)
			s.idx.Store(lt.Idx() + 1)
			t.tail.CompareAndSwap(lt, s)
			continue
		}
		if n.pred.CompareAndSwap(nil, lt) {
			if lt.succ.CompareAndSwap(nil, n) {
				t.finish(lt, n, d)
			} else {
				// Lost lt to another node; un-claim and retry. Safe:
				// n cannot be in the list, since only lt.succ==n
				// would have put it there.
				n.pred.CompareAndSwap(lt, nil)
			}
		}
	}
}

// finish completes the insert of n after p (idempotent; may be executed
// by any number of helpers).
func (t *WaitFree) finish(p, n *Node, d *wfDesc) {
	n.next.Store(p)
	n.idx.Store(p.Idx() + 1)
	t.tail.CompareAndSwap(p, n)
	d.pending.Store(false)
}

// Tail implements Interface. The tail reference may lag behind a claimed
// successor momentarily; that is indistinguishable from reading the tail
// an instant earlier.
func (t *WaitFree) Tail(pid int) *Node {
	t.gate.Step(pid, "trace.read-tail")
	return t.tail.Load()
}

// SetAvailable implements Interface (epoch bump ordered after the
// available store, as in LockFree).
func (t *WaitFree) SetAvailable(pid int, node *Node) {
	t.gate.Step(pid, "trace.set-available")
	node.available.Store(true)
	t.epoch.Add(1)
}

// Epoch implements Interface.
func (t *WaitFree) Epoch(pid int) uint64 {
	t.gate.Step(pid, "trace.epoch")
	return t.epoch.Load()
}

// Sentinel implements Interface.
func (t *WaitFree) Sentinel() *Node { return t.sentinel }

// ---------------------------------------------------------------------
// Shared traversal helpers.
// ---------------------------------------------------------------------

// CollectBackInto walks from n toward the head, collecting nodes with
// index strictly greater than downTo into buf[:0], in trace order
// (oldest first). It stops early at a KindBase node (whose snapshot
// stands for the whole prefix up to and including the base's index);
// the base, if hit, is returned separately, and any collected node
// already covered by the base's snapshot (index <= base.Idx(), possible
// because a compaction cut links a node of index s to a base of the
// same index s) is dropped. The walk fills the buffer newest-first,
// trims the tail entries already covered by a base's snapshot (they
// have the smallest indices, so they sit at the end), and reverses in
// place — one buffer, no second slice, and zero allocations once the
// caller's scratch buffer has grown to the lag.
//
//onll:hotpath
func CollectBackInto(buf []*Node, n *Node, downTo uint64) (nodes []*Node, base *Node) {
	out := buf[:0]
	for cur := n; cur != nil && cur.Idx() > downTo; {
		if cur.Kind == KindBase {
			base = cur
			break
		}
		out = append(out, cur)
		cur = cur.next.Load()
	}
	if base != nil && base.Idx() > downTo {
		// Indices decrease along the walk: covered nodes (index <=
		// base.Idx()) form a suffix of out.
		floor := base.Idx()
		for len(out) > 0 && out[len(out)-1].Idx() <= floor {
			out = out[:len(out)-1]
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	// Clear the buffer's stale tail: node pointers left by an earlier,
	// longer collection would pin compacted trace prefixes (and their
	// base snapshots) against GC for as long as the caller keeps the
	// scratch buffer. Stale entries are contiguous from len(out) (append
	// growth zeroes fresh capacity and this loop keeps everything past
	// the first nil clear), so stopping there makes the cost O(previous
	// window) instead of O(capacity) — a full-capacity clear costs every
	// steady-state one-node call the largest window ever collected.
	tail := out[len(out):cap(out)]
	for i := range tail {
		if tail[i] == nil {
			break
		}
		tail[i] = nil
	}
	return out, base
}

// Snapshot returns the indices and availability of every node reachable
// from n back to the sentinel/base, newest first (a diagnostic used by
// invariant checks and the Figure 1 walkthrough).
func Snapshot(n *Node) []struct {
	Idx       uint64
	Available bool
	Op        spec.Op
} {
	var out []struct {
		Idx       uint64
		Available bool
		Op        spec.Op
	}
	for cur := n; cur != nil; cur = cur.next.Load() {
		out = append(out, struct {
			Idx       uint64
			Available bool
			Op        spec.Op
		}{cur.Idx(), cur.Available(), cur.Op})
		if cur.Kind != KindUpdate {
			break
		}
	}
	return out
}
