package baselines

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// FlatCombining is the lock-based design discussed in the paper's
// Section 8: processes announce operations; whoever holds the lock (the
// combiner) gathers a batch of announced operations, appends the whole
// batch to a shared persistent log with a SINGLE persistent fence, then
// applies the batch to the volatile state and hands out return values.
//
// The fence count per operation is 1/batch-size — below the lock-free
// lower bound — but, as the paper observes, every pending operation
// still pays the price of the persistent fence by waiting while the
// combiner performs it, and a stalled combiner blocks everyone (the
// construction is blocking).
//
// Responses are only released after the batch's fence, so every
// completed operation is durable: the construction is durably
// linearizable, and recovery replays the shared log.
type FlatCombining struct {
	pool   *pmem.Pool
	sp     spec.Spec
	nprocs int

	slots []atomic.Pointer[fcRequest]
	// lastID[pid] is the id of pid's most recent operation (each slot
	// is owned by one process).
	lastID []uint64

	mu      sync.Mutex // the combiner lock (lock-based by design)
	state   spec.State // guarded by mu
	nextIdx uint64     // guarded by mu: next execution index
	log     *plog.Log  // guarded by mu: the shared persistent log
	batches uint64     // guarded by mu: number of combined batches
	combOps uint64     // guarded by mu: total ops combined
}

type fcRequest struct {
	op     spec.Op
	isRead bool
	ret    uint64
	done   atomic.Bool
}

const (
	fcRootMagic = 0x46434f4d // "FCOM"
	fcMagicSlot = 4
	fcLogSlot   = 5
)

// NewFlatCombining builds a fresh flat-combining object on pool with a
// shared log of logCapacity records.
func NewFlatCombining(pool *pmem.Pool, sp spec.Spec, nprocs, logCapacity int) (*FlatCombining, error) {
	if nprocs < 1 {
		return nil, errors.New("baselines: nprocs < 1")
	}
	if logCapacity == 0 {
		logCapacity = 1 << 14
	}
	// The shared log is owned by whichever process holds the lock; it
	// is created under the system pid and batch sizes are bounded by
	// nprocs (one pending op per process). A record takes the lines its
	// batch needs, so the log holds at least logCapacity operations
	// however they are combined.
	l, err := plog.Create(pool, pmem.RootSystemPID, logCapacity, nprocs)
	if err != nil {
		return nil, err
	}
	pool.SetRoot(fcLogSlot, uint64(l.Base()))
	pool.SetRoot(fcMagicSlot, fcRootMagic)
	fc := &FlatCombining{
		pool: pool, sp: sp, nprocs: nprocs,
		slots:  make([]atomic.Pointer[fcRequest], nprocs),
		lastID: make([]uint64, nprocs),
		state:  sp.New(), nextIdx: 1, log: l,
	}
	return fc, nil
}

// RecoverFlatCombining rebuilds the object from the shared log after a
// crash.
func RecoverFlatCombining(pool *pmem.Pool, sp spec.Spec, nprocs int) (*FlatCombining, error) {
	if pool.Root(fcMagicSlot) != fcRootMagic {
		return nil, errors.New("baselines: pool has no flat-combining root")
	}
	l, err := plog.Open(pool, pmem.RootSystemPID, pmem.Addr(pool.Root(fcLogSlot)))
	if err != nil {
		return nil, err
	}
	st := sp.New()
	idx := uint64(1)
	for _, rec := range l.Records() {
		if rec.Kind != plog.KindOps {
			continue
		}
		// Records store ops newest-first (ops[k] has index ExecIdx-k);
		// replay oldest-first.
		for k := len(rec.Ops) - 1; k >= 0; k-- {
			st.Apply(rec.Ops[k])
			idx++
		}
	}
	fc := &FlatCombining{
		pool: pool, sp: sp, nprocs: nprocs,
		slots:  make([]atomic.Pointer[fcRequest], nprocs),
		lastID: make([]uint64, nprocs),
		state:  st, nextIdx: idx, log: l,
	}
	return fc, nil
}

// Update implements Object.
func (fc *FlatCombining) Update(pid int, code uint64, args ...uint64) (uint64, error) {
	return fc.submit(pid, code, false, args)
}

// Read implements Object. Reads also go through the combiner: they are
// linearized against the post-fence state, and — as the paper's Section 8
// argues — they wait out the combiner's fence like everyone else.
//
//onll:allowfence(flat-combining reads go through the combiner and may BE the combiner, fencing the gathered batch — the §8 baseline the paper argues against)
func (fc *FlatCombining) Read(pid int, code uint64, args ...uint64) uint64 {
	ret, _ := fc.submit(pid, code, true, args)
	return ret
}

func (fc *FlatCombining) submit(pid int, code uint64, isRead bool, args []uint64) (uint64, error) {
	req := &fcRequest{isRead: isRead}
	req.op = spec.Op{Code: code, ID: spec.MakeID(pid, atomic.AddUint64(&fcSeq, 1))}
	copy(req.op.Args[:], args)
	fc.lastID[pid] = req.op.ID
	fc.slots[pid].Store(req)
	for !req.done.Load() {
		if fc.mu.TryLock() {
			err := fc.combine(pid)
			fc.mu.Unlock()
			if err != nil && !req.done.Load() {
				fc.slots[pid].Store(nil)
				return 0, err
			}
			continue
		}
		runtime.Gosched()
	}
	return req.ret, nil
}

var fcSeq uint64

// combine is executed with the lock held: gather announced ops, persist
// updates as one record with one persistent fence, apply, respond.
func (fc *FlatCombining) combine(combinerPID int) error {
	var reqs []*fcRequest
	for i := range fc.slots {
		if r := fc.slots[i].Load(); r != nil && !r.done.Load() {
			reqs = append(reqs, r)
			fc.slots[i].Store(nil)
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	// Persist the update batch first: ops newest-first per the plog
	// record convention, so assign indices now.
	var updates []*fcRequest
	for _, r := range reqs {
		if !r.isRead {
			updates = append(updates, r)
		}
	}
	if len(updates) > 0 {
		ops := make([]spec.Op, len(updates))
		last := fc.nextIdx + uint64(len(updates)) - 1
		for i, r := range updates {
			// updates[i] gets index nextIdx+i; record slot k holds
			// index last-k, i.e. reversed order.
			ops[len(updates)-1-i] = r.op
		}
		if _, err := fc.log.Append(ops, last); err != nil {
			return err
		}
		fc.batches++
		fc.combOps += uint64(len(updates))
	}
	// The batch is durable; now apply and respond.
	for _, r := range reqs {
		if r.isRead {
			r.ret = fc.state.Read(r.op)
		} else {
			r.ret = fc.state.Apply(r.op)
			fc.nextIdx++
		}
		r.done.Store(true)
	}
	return nil
}

// CombinerStats reports (batches combined, total update ops combined) —
// the basis of the fences-per-op-below-one observation in E6.
func (fc *FlatCombining) CombinerStats() (batches, ops uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.batches, fc.combOps
}

// LastID returns the id of pid's most recent operation.
func (fc *FlatCombining) LastID(pid int) uint64 { return fc.lastID[pid] }

// DurableOps returns the update sequence the shared log would recover,
// oldest first. Used by the durability checker.
func (fc *FlatCombining) DurableOps() []spec.Op {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var out []spec.Op
	for _, rec := range fc.log.Records() {
		if rec.Kind != plog.KindOps {
			continue
		}
		for k := len(rec.Ops) - 1; k >= 0; k-- {
			out = append(out, rec.Ops[k])
		}
	}
	return out
}

// State returns a clone of the current volatile state (diagnostics).
func (fc *FlatCombining) State() spec.State {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.state.Clone()
}
