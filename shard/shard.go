// Package shard partitions a keyspace across several independent ONLL
// instances sharing ONE persistent pool — the multi-core scale-out
// layer (DESIGN.md §3.9). A single instance serializes every update on
// one trace tail (the order stage's CAS) no matter how many processes
// drive it; sharding multiplies the tails. Each shard is a complete,
// unmodified core instance — its own per-process logs, trace,
// compaction cadence, pressure valve and salvage state — laid out in
// the shared pool's root table at
// RootBase + i*core.RootSpan(NProcs) and guarded against overlap by
// the pool's root-claim registry (core.ErrRootOverlap).
//
// A composed Handle routes every keyed operation to the shard its key
// hashes to and forwards it verbatim, so the paper's per-operation
// guarantees pass through untouched: updates keep their single persist
// fence, reads stay fence-free, and each shard's history is durably
// linearizable on its own. What the composition adds — and all it
// adds — is ROUTING. Operations on one key always meet the same shard,
// so per-key semantics (read-your-writes, per-handle monotonicity) are
// exactly the single-instance guarantees. Operations that aggregate
// across keys (Len, Total) cannot be answered by one shard; ReadEach /
// ReadSum run the read on every shard and combine, and the combined
// value is a product of per-shard linearizable reads, NOT an atomic
// cross-shard snapshot — a transfer-like update spanning two shards
// between the two legs is observable as such. Workloads that need
// multi-key updates to stay atomic must keep the co-accessed keys on
// one shard (Config.KeyOf).
//
// Recovery composes per shard: each shard recovers from its own root
// range (salvage, delta-chain refolding and quarantine classification
// all per shard), and detectability keeps its per-shard scope — op ids
// are only unique within a shard, so Report.WasLinearized takes the
// shard index that Handle.ShardOf reported when the op was issued.
package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// Config parameterizes Open and Recover.
type Config struct {
	// Shards is the number of partitions (independent core instances).
	// Zero selects 1 (the composition degenerates to one instance).
	Shards int
	// Base is the per-shard core configuration template: every shard is
	// created with this config, with RootBase advanced by
	// core.RootSpan(NProcs) per shard (Base.RootBase is shard 0's).
	Base core.Config
	// KeyOf extracts the routing key from an operation. Nil selects the
	// default — args[0], or 0 for argument-less ops — which matches
	// every shipped object whose first argument is the key (Map,
	// OrderedMap, Set, Bank accounts). Ops that touch several keys
	// (BankTransfer) are routed by the SAME function; give them a KeyOf
	// that maps co-accessed keys to one shard or keep them off sharded
	// deployments.
	KeyOf func(code uint64, args []uint64) uint64
}

func (c *Config) fill() error {
	if c.Shards < 0 {
		return fmt.Errorf("shard: Shards %d negative", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.KeyOf == nil {
		c.KeyOf = func(code uint64, args []uint64) uint64 {
			if len(args) > 0 {
				return args[0]
			}
			return 0
		}
	}
	return nil
}

// Instance is a keyspace-sharded composition of core instances on one
// pool. Obtain per-process Handles with Handle; all other methods are
// safe for concurrent use.
type Instance struct {
	cfg    Config
	shards []*core.Instance
	hands  []*Handle
}

// rootBaseFor returns shard i's root-table base under cfg.
func rootBaseFor(cfg *Config, i int) int {
	return cfg.Base.RootBase + i*core.RootSpan(cfg.Base.NProcs)
}

// Open builds a fresh sharded instance of sp on pool: cfg.Shards
// independent core instances tiled through the pool's root table. The
// per-shard root ranges are claimed with the pool (a colliding layout —
// another object already at one of the computed bases — fails with
// core.ErrRootOverlap before anything is clobbered).
func Open(pool *pmem.Pool, sp spec.Spec, cfg Config) (*Instance, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	in := &Instance{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		c := cfg.Base
		c.RootBase = rootBaseFor(&cfg, i)
		s, err := core.New(pool, sp, c)
		if err != nil {
			return nil, fmt.Errorf("shard: creating shard %d/%d: %w", i, cfg.Shards, err)
		}
		in.shards = append(in.shards, s)
	}
	in.makeHandles()
	return in, nil
}

// Report is the per-shard composition of recovery reports. Op ids are
// unique only within a shard (each shard numbers its processes' ops
// independently), so detectability queries carry the shard index the
// op was routed to — recorded at issue time via Handle.ShardOf.
type Report struct {
	// Shards holds each shard's report, indexed like Instance.Shard.
	Shards []*core.Report
}

// WasLinearized reports whether the update with the given id, issued
// against shard s, took effect before the crash (detectable
// execution), and at which per-shard execution index.
func (r *Report) WasLinearized(s int, id uint64) (uint64, bool) {
	return r.Shards[s].WasLinearized(id)
}

// Recover rebuilds a sharded instance from the durable contents of
// pool after a crash. Each shard recovers independently from its own
// root range — salvage classification, delta-chain refolding and
// quarantine are all per shard, so media damage in one partition
// degrades that partition only (inspect per-shard health via
// Shard(i).Health(), recreate a quarantined shard via
// Shard(i).Recreate()). Base.NProcs may be zero to accept whatever
// shard 0 recovered, but all shards must agree on it (Open lays them
// out that way; a mismatch means the layout under recovery is not one
// sharded instance).
func Recover(pool *pmem.Pool, sp spec.Spec, cfg Config) (*Instance, *Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	in := &Instance{cfg: cfg}
	rep := &Report{}
	for i := 0; i < cfg.Shards; i++ {
		c := cfg.Base
		c.NProcs = in.cfg.Base.NProcs // shard 0's recovered count, once known
		c.RootBase = rootBaseFor(&in.cfg, i)
		s, r, err := core.Recover(pool, sp, c)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: recovering shard %d/%d: %w", i, cfg.Shards, err)
		}
		if in.cfg.Base.NProcs == 0 {
			in.cfg.Base.NProcs = s.NProcs()
		} else if s.NProcs() != in.cfg.Base.NProcs {
			return nil, nil, fmt.Errorf("shard: shard %d recovered NProcs %d, shard 0 has %d",
				i, s.NProcs(), in.cfg.Base.NProcs)
		}
		in.shards = append(in.shards, s)
		rep.Shards = append(rep.Shards, r)
	}
	in.makeHandles()
	return in, rep, nil
}

func (in *Instance) makeHandles() {
	n := in.shards[0].NProcs()
	in.hands = make([]*Handle, n)
	for pid := 0; pid < n; pid++ {
		h := &Handle{in: in, pid: pid, hs: make([]*core.Handle, len(in.shards))}
		for i, s := range in.shards {
			h.hs[i] = s.Handle(pid)
		}
		in.hands[pid] = h
	}
}

// NShards returns the shard count.
func (in *Instance) NShards() int { return len(in.shards) }

// NProcs returns the per-shard process count (every shard agrees).
func (in *Instance) NProcs() int { return in.shards[0].NProcs() }

// Shard returns partition i's core instance, for per-shard surfaces
// the composition deliberately does not flatten: health and recreation
// (Health, Recreate), scrubbing, pressure and compaction stats.
func (in *Instance) Shard(i int) *core.Instance { return in.shards[i] }

// Handle returns the per-process composed handle for pid. Like a core
// handle, it must only be used by one operation at a time.
func (in *Instance) Handle(pid int) *Handle { return in.hands[pid] }

// shardOf maps a routing key to its partition. The multiplicative
// scramble (the 64-bit golden-ratio constant) decorrelates the
// partition from low-bit key patterns — dense keys, strided keys and
// zipfian-popular small keys all spread — while staying deterministic
// across runs and recoveries, which is what keeps a key on the same
// shard for the lifetime of the image.
func (in *Instance) shardOf(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15 >> 17) % uint64(len(in.shards)))
}

// Handle is one process's interface to the sharded object: a composed
// router over the process's per-shard core handles. It satisfies the
// same Update/Read shape as core.Handle (workload.Handle), so
// generators and benches drive both interchangeably.
type Handle struct {
	in  *Instance
	pid int
	hs  []*core.Handle
	// eachBuf is the reusable per-shard value buffer behind ReadSum (and
	// any other aggregate probe that goes through ReadEachInto with it):
	// a Handle runs one operation at a time, so the scratch never
	// overlaps itself, and steady-state aggregates allocate nothing.
	eachBuf []uint64
}

// PID returns the handle's process id.
func (h *Handle) PID() int { return h.pid }

// ShardOf returns the partition the given operation routes to. Record
// it alongside the op id when tracking detectability: recovery reports
// are per shard (Report.WasLinearized).
func (h *Handle) ShardOf(code uint64, args ...uint64) int {
	return h.in.shardOf(h.in.cfg.KeyOf(code, args))
}

// Update executes the update on the shard its key routes to: one trace
// append, one log append, ONE persistent fence — the single-instance
// pipeline verbatim, on a tail only this shard's updaters contend for.
// The returned id is scoped to that shard (pair it with ShardOf for
// post-crash detectability queries).
func (h *Handle) Update(code uint64, args ...uint64) (ret, id uint64, err error) {
	return h.hs[h.ShardOf(code, args...)].Update(code, args...)
}

// Read executes the read-only operation on the shard its key routes
// to — fence-free, epoch-validated against that shard's trace exactly
// as in the single-instance fast path. Per-key monotonicity and
// read-your-writes are the single-shard guarantees, inherited because
// a key never changes shards. Aggregate reads (Len, Total) answer for
// ONE partition only; use ReadEach or ReadSum for the global view.
func (h *Handle) Read(code uint64, args ...uint64) uint64 {
	return h.hs[h.ShardOf(code, args...)].Read(code, args...)
}

// On returns the process's core handle for partition s, for callers
// that need shard-targeted operations (tests, per-shard probes).
func (h *Handle) On(s int) *core.Handle { return h.hs[s] }

// ReadEach runs the read on EVERY shard, in shard order, returning one
// value per shard. Each leg is linearizable within its shard and
// monotone for this handle; the vector as a whole is not an atomic
// cross-shard snapshot (updates may land between legs). ReadEach
// allocates a fresh slice per call; aggregate probes on a hot path
// (bench pollers, server stats) should hold a buffer and call
// ReadEachInto instead.
func (h *Handle) ReadEach(code uint64, args ...uint64) []uint64 {
	return h.ReadEachInto(nil, code, args...)
}

// ReadEachInto is ReadEach with a caller-owned result buffer: dst is
// grown only when its capacity is short of the shard count, so a
// buffer reused across calls makes the whole aggregate path
// allocation-free (pinned by TestShardAggregateAllocs). The returned
// slice always has exactly one element per shard.
func (h *Handle) ReadEachInto(dst []uint64, code uint64, args ...uint64) []uint64 {
	if cap(dst) < len(h.hs) {
		dst = make([]uint64, len(h.hs))
	}
	dst = dst[:len(h.hs)]
	for i, ch := range h.hs {
		dst[i] = ch.Read(code, args...)
	}
	return dst
}

// ReadSum runs the read on every shard and sums — the composition of
// additive aggregates (Map Len, Bank Total). The same caveat as
// ReadEach applies: the sum is a sequence of per-shard linearizable
// reads, not one atomic snapshot, so only quantities conserved WITHIN
// each shard are exact under concurrency. The per-shard values land in
// the handle's reusable buffer via ReadEachInto, so ReadSum never
// allocates.
func (h *Handle) ReadSum(code uint64, args ...uint64) uint64 {
	h.eachBuf = h.ReadEachInto(h.eachBuf, code, args...)
	var sum uint64
	for _, v := range h.eachBuf {
		sum += v
	}
	return sum
}
