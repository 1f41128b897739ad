package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/shard"
)

// The layer probes time each layer from outside: calls into its
// exported functions on a standalone instance of that layer, nothing
// else running. They say what a layer's call costs in isolation; the
// ledger lines compare their sum with what the whole pipeline costs.

// probeRounds is how many times a probe repeats its timed batch; the
// median round is reported.
const probeRounds = 5

type prober struct {
	res    *result
	tr     *tracer
	rounds int
}

// time runs round p.rounds times and records the median of its
// per-unit cost as metric. round performs its calls and returns how
// long they took and how many units (calls, nodes, kilowords) that
// was. Each round is one span named after the layer call.
func (p *prober) time(metric, call string, round func() (time.Duration, float64)) {
	per := make([]float64, 0, p.rounds)
	for i := 0; i < p.rounds; i++ {
		t0 := time.Now()
		d, units := round()
		if p.tr != nil {
			p.tr.add(0, 0, call, t0.UnixNano(), time.Now().UnixNano())
		}
		per = append(per, float64(d.Nanoseconds())/units)
	}
	p.res.set(metric, median(per))
}

// loop times n calls of fn.
func loop(n int, fn func(i int)) (time.Duration, float64) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0), float64(n)
}

// must panics on a probe set-up error: probes run on fresh, private
// instances, so a failure there is a bug in the bench or the layer.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// sink keeps results the probes compute from being optimised away.
var sink uint64

// runProbes times every layer and returns the probe metrics, with the
// ledger lines that reconcile them.
func runProbes(seed int64, tr *tracer) *result {
	p := &prober{res: newResult(), tr: tr, rounds: probeRounds}
	p.all(seed)
	return p.res
}

func (p *prober) all(seed int64) {
	p.pmem()
	p.plog()
	p.trace()
	p.objects()
	p.core()
	p.shard()
	if err := p.server(seed); err != nil {
		p.res.failed++
		p.res.violate("server probes: %v", err)
	}
	p.ledger()
}

func (p *prober) pmem() {
	const lines = 1024
	pool := pmem.New(1<<22, nil)
	base := pool.MustAlloc(lines * pmem.LineSize)
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	at := func(i int) pmem.Addr { return base + pmem.Addr(i%lines*pmem.LineSize) }
	p.time("pmem.storeline_ns", "pmem.Pool.StoreLine", func() (time.Duration, float64) {
		return loop(20000, func(i int) { pool.StoreLine(0, at(i), vals) })
	})
	p.time("pmem.flush_ns", "pmem.Pool.Flush", func() (time.Duration, float64) {
		for i := 0; i < lines; i++ {
			pool.StoreLine(0, at(i), vals)
		}
		d, n := loop(lines, func(i int) { pool.Flush(0, at(i)) })
		pool.Fence(0)
		return d, n
	})
	for _, k := range []int{1, 8, 64} {
		p.time(fmt.Sprintf("pmem.fence_ns_k%d", k), "pmem.Pool.Fence", func() (time.Duration, float64) {
			var d time.Duration
			const n = 500
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					pool.StoreLine(0, at(i*k+j), vals)
					pool.Flush(0, at(i*k+j))
				}
				t0 := time.Now()
				pool.Fence(0)
				d += time.Since(t0)
			}
			return d, n
		})
	}
}

func (p *prober) plog() {
	pool := pmem.New(1<<28, nil)
	newLog := func() *plog.Log {
		l, err := plog.CreateInline(pool, 0, logCap, svcNProcs+svcBatch, 0)
		must(err)
		return l
	}
	ops := make([]spec.Op, svcBatch)
	for i := range ops {
		ops[i] = spec.Op{Code: objects.OMapPut, Args: [3]uint64{uint64(i), uint64(i)}, ID: spec.MakeID(0, uint64(i+1))}
	}
	idx := uint64(0)
	appendN := func(metric string, width, n int) {
		l := newLog()
		p.time(metric, "plog.Log.Append", func() (time.Duration, float64) {
			d, units := loop(n, func(int) {
				idx++
				_, err := l.Append(ops[:width], idx)
				must(err)
			})
			must(l.Truncate(l.NextSeq() - 1))
			return d, units
		})
	}
	appendN("plog.append_inline_ns", 1, 2000)
	appendN("plog.append_spill_ns", 2*plog.DefaultInlineOps, 1000)
	appendN("plog.append_batch16_ns", 16, 500)
	appendN("plog.append_batch64_ns", svcBatch, 250)

	const kword = 1024
	payload := make([]uint64, 8*kword)
	for i := range payload {
		payload[i] = uint64(i)
	}
	l := newLog()
	p.time("plog.append_delta_ns_per_kword", "plog.Log.AppendDelta", func() (time.Duration, float64) {
		idx++
		_, err := l.AppendChainBase(payload[:kword], idx)
		must(err)
		return loop(64, func(int) {
			idx++
			_, err := l.AppendDelta(payload[:kword], idx)
			must(err)
		})
	})
	l = newLog()
	p.time("plog.append_snapshot_ns_per_kword", "plog.Log.AppendSnapshot", func() (time.Duration, float64) {
		d, n := loop(16, func(int) {
			idx++
			_, err := l.AppendSnapshot(payload, idx)
			must(err)
		})
		return d, n * float64(len(payload)/kword)
	})
	l = newLog()
	p.time("plog.truncate_ns", "plog.Log.Truncate", func() (time.Duration, float64) {
		var d time.Duration
		const n = 500
		for i := 0; i < n; i++ {
			idx++
			seq, err := l.Append(ops[:1], idx)
			must(err)
			t0 := time.Now()
			err = l.Truncate(seq)
			d += time.Since(t0)
			must(err)
		}
		return d, n
	})
}

func (p *prober) trace() {
	gate := sched.NopGate{}
	tr := trace.NewLockFree(gate)
	const n = 10000
	var nodes []*trace.Node
	fresh := func() {
		nodes = nodes[:0]
		for i := 0; i < n; i++ {
			nodes = append(nodes, trace.NewNode(spec.Op{Code: objects.OMapPut, Args: [3]uint64{uint64(i)}}))
		}
	}
	p.time("trace.insert_ns", "trace.LockFree.Insert", func() (time.Duration, float64) {
		fresh()
		d, units := loop(n, func(i int) { tr.Insert(0, nodes[i]) })
		for _, nd := range nodes {
			tr.SetAvailable(0, nd)
		}
		return d, units
	})
	p.time("trace.set_available_ns", "trace.LockFree.SetAvailable", func() (time.Duration, float64) {
		fresh()
		for _, nd := range nodes {
			tr.Insert(0, nd)
		}
		return loop(n, func(i int) { tr.SetAvailable(0, nodes[i]) })
	})
	// One ordered-but-unavailable node at the tail: the fuzzy window an
	// uncontended update sees.
	tail := trace.NewNode(spec.Op{Code: objects.OMapPut})
	tr.Insert(0, tail)
	var buf []spec.Op
	p.time("trace.fuzzy_ops_ns", "trace.GetFuzzyOpsInto", func() (time.Duration, float64) {
		return loop(n, func(int) { buf = trace.GetFuzzyOpsInto(buf, gate, 0, tail) })
	})
	tr.SetAvailable(0, tail)
	p.time("trace.latest_available_ns", "trace.LatestAvailableFrom", func() (time.Duration, float64) {
		return loop(n, func(int) { sink += trace.LatestAvailableFrom(gate, 0, tr.Tail(0)).Idx() })
	})
	p.time("trace.epoch_ns", "trace.LockFree.Epoch", func() (time.Duration, float64) {
		return loop(10*n, func(int) { sink += tr.Epoch(0) })
	})
	const back = 64
	var nbuf []*trace.Node
	p.time("trace.collect_back_ns_per_node", "trace.CollectBackInto", func() (time.Duration, float64) {
		d, units := loop(n/10, func(int) { nbuf, _ = trace.CollectBackInto(nbuf, tail, tail.Idx()-back) })
		return d, units * back
	})
}

// omap returns an ordered-map state holding keys [0, n).
func omap(n int) spec.State {
	st := objects.OrderedMapSpec{}.New()
	for k := 0; k < n; k++ {
		st.Apply(spec.Op{Code: objects.OMapPut, Args: [3]uint64{uint64(k), uint64(k)}})
	}
	return st
}

func (p *prober) objects() {
	for _, sz := range []struct {
		tag  string
		keys int
	}{{"1k", keySpace}, {"64k", churnKeys}} {
		st := omap(sz.keys)
		key := func(i int) uint64 { return scramble(uint64(i)) % uint64(sz.keys) }
		p.time("objects.apply_put_ns_"+sz.tag, "objects.OrderedMap.Apply", func() (time.Duration, float64) {
			return loop(50000, func(i int) {
				sink += st.Apply(spec.Op{Code: objects.OMapPut, Args: [3]uint64{key(i), uint64(i)}})
			})
		})
		p.time("objects.read_get_ns_"+sz.tag, "objects.OrderedMap.Read", func() (time.Duration, float64) {
			return loop(50000, func(i int) {
				sink += st.Read(spec.Op{Code: objects.OMapGet, Args: [3]uint64{key(i)}})
			})
		})
	}
	src := omap(churnKeys)
	kwords := float64(spec.SizeHint(src)) / 1024
	dst := objects.OrderedMapSpec{}.New()
	p.time("objects.copy_ns_per_kword", "spec.Copy", func() (time.Duration, float64) {
		d, n := loop(20, func(int) { spec.Copy(dst, src) })
		return d, n * kwords
	})
	var snap []uint64
	p.time("objects.snapshot_ns_per_kword", "objects.OrderedMap.Snapshot", func() (time.Duration, float64) {
		d, n := loop(20, func(int) { snap = src.Snapshot() })
		return d, n * float64(len(snap)) / 1024
	})
	p.time("objects.restore_ns_per_kword", "objects.OrderedMap.Restore", func() (time.Duration, float64) {
		d, n := loop(20, func(int) { must(dst.Restore(snap)) })
		return d, n * float64(len(snap)) / 1024
	})
}

// preloaded returns a fresh instance holding keys [0, keySpace).
func preloaded(pool *pmem.Pool, cfg core.Config) *core.Instance {
	in, err := core.New(pool, objects.OrderedMapSpec{}, cfg)
	must(err)
	for k := 0; k < keySpace; k++ {
		_, _, err := in.Handle(0).Update(objects.OMapPut, uint64(k), uint64(k))
		must(err)
	}
	return in
}

func (p *prober) core() {
	key := func(i int) uint64 { return scramble(uint64(i)) % keySpace }
	in := preloaded(pmem.New(poolBytes(false), nil), libConfig(1))
	h := in.Handle(0)
	p.time("core.update_ns", "core.Handle.Update", func() (time.Duration, float64) {
		return loop(20000, func(i int) {
			_, _, err := h.Update(objects.OMapPut, key(i), uint64(i))
			must(err)
		})
	})
	p.time("core.read_ns", "core.Handle.Read", func() (time.Duration, float64) {
		return loop(200000, func(i int) { sink += h.Read(objects.OMapGet, key(i)) })
	})

	in = preloaded(pmem.New(poolBytes(false), nil), svcCoreConfig())
	b := in.Handle(0).NewBatch()
	stage := func(i int) {
		_, _, err := b.Stage(objects.OMapPut, key(i), uint64(i))
		must(err)
	}
	p.time("core.stage_ns", "core.Batch.Stage", func() (time.Duration, float64) {
		var d time.Duration
		const batches = 50
		for j := 0; j < batches; j++ {
			dj, _ := loop(svcBatch, stage)
			d += dj
			must(b.Flush())
		}
		return d, batches * svcBatch
	})
	for _, width := range []int{1, 16, svcBatch} {
		p.time(fmt.Sprintf("core.flush_ns_b%d", width), "core.Batch.Flush", func() (time.Duration, float64) {
			var d time.Duration
			const n = 200
			for j := 0; j < n; j++ {
				for i := 0; i < width; i++ {
					stage(i)
				}
				t0 := time.Now()
				err := b.Flush()
				d += time.Since(t0)
				must(err)
			}
			return d, n
		})
	}

	pool := pmem.New(poolBytes(false), nil)
	cfg := libConfig(2)
	in = preloaded(pool, cfg)
	for i := 0; i < 5000; i++ {
		_, _, err := in.Handle(i&1).Update(objects.OMapPut, key(i), uint64(i))
		must(err)
	}
	records := 0
	for pid := 0; pid < in.NProcs(); pid++ {
		records += len(in.Log(pid).Records())
	}
	p.time("core.recover_ns_per_record", "core.Recover", func() (time.Duration, float64) {
		pool.Crash(pmem.DropAll)
		t0 := time.Now()
		_, _, err := core.Recover(pool, objects.OrderedMapSpec{}, cfg)
		d := time.Since(t0)
		must(err)
		return d, float64(records)
	})
}

func (p *prober) shard() {
	const n = 20000
	in, err := shard.Open(pmem.New(poolBytes(false), nil), objects.OrderedMapSpec{}, shard.Config{Shards: 2, Base: libConfig(1)})
	must(err)
	h := in.Handle(0)
	of := make([]int, keySpace)
	for k := range of {
		_, _, err := h.Update(objects.OMapPut, uint64(k), uint64(k))
		must(err)
		of[k] = h.ShardOf(objects.OMapPut, uint64(k))
	}
	key := func(i int) uint64 { return scramble(uint64(i)) % keySpace }
	// The route cost is the same op through shard.Handle and straight
	// through the core handle it resolves to.
	pair := func(metric, call string, routed, direct func(i int)) {
		p.time(metric, call, func() (time.Duration, float64) {
			dr, _ := loop(n, routed)
			dd, _ := loop(n, direct)
			return dr - dd, n
		})
	}
	pair("shard.update_route_ns", "shard.Handle.Update",
		func(i int) { _, _, err := h.Update(objects.OMapPut, key(i), uint64(i)); must(err) },
		func(i int) { _, _, err := h.On(of[key(i)]).Update(objects.OMapPut, key(i), uint64(i)); must(err) })
	pair("shard.read_route_ns", "shard.Handle.Read",
		func(i int) { sink += h.Read(objects.OMapGet, key(i)) },
		func(i int) { sink += h.On(of[key(i)]).Read(objects.OMapGet, key(i)) })
}

// server times depth-1 round trips (one connection, one request in
// flight) through the bench's raw client and through server.Client.
func (p *prober) server(seed int64) error {
	wl, err := findWorkload("svc-read")
	if err != nil {
		return err
	}
	e, err := setupSvc(wl, seed, false)
	if err != nil {
		return err
	}
	defer e.close()
	wc := e.conns[0].wc
	key := func(i int) uint64 { return scramble(uint64(i)) % keySpace }
	rtt := func(n int, call func(i int) error) (float64, error) {
		lat := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := call(i); err != nil {
				return 0, err
			}
			lat = append(lat, uint32(time.Since(t0).Nanoseconds()))
		}
		slices.Sort(lat)
		return percentile(lat, 0.5) / 1e3, nil
	}
	span := func(name string, t0 time.Time) {
		if p.tr != nil {
			p.tr.add(0, 0, name, t0.UnixNano(), time.Now().UnixNano())
		}
	}
	t0 := time.Now()
	raw, err := rtt(3000, func(i int) error {
		r, err := wc.call(uint32(i), kindRead, objects.OMapGet, key(i))
		sink += r.ret
		return err
	})
	if err != nil {
		return err
	}
	span("wire.read", t0)
	p.res.set("server.rtt_depth1_read_p50_us", raw)

	t0 = time.Now()
	upd, err := rtt(300, func(i int) error {
		_, err := wc.call(uint32(i), kindUpdatePersist, objects.OMapPut, key(i)&^1, valueOf(uint64(i+1), 0))
		return err
	})
	if err != nil {
		return err
	}
	span("wire.update_persist", t0)
	p.res.set("server.rtt_depth1_update_p50_us", upd)

	cl, err := server.Dial("tcp", e.srv.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	t0 = time.Now()
	viaClient, err := rtt(3000, func(i int) error {
		r, err := cl.Call(kindRead, objects.OMapGet, key(i))
		sink += r.Ret
		return err
	})
	if err != nil {
		return err
	}
	span("server.Client.Call", t0)
	p.res.set("server.client_overhead_us", viaClient-raw)
	return nil
}

// ledger compares what the whole pipeline costs with the sum of its
// layers' probes. The remainder is not an error to be tuned away: it
// is the finding the next change starts from.
func (p *prober) ledger() {
	m := p.res.m
	unexplained := func(whole float64, parts ...string) float64 {
		if whole <= 0 {
			return 0
		}
		sum := 0.0
		for _, name := range parts {
			sum += m[name]
		}
		return 100 * (whole - sum) / whole
	}
	p.res.set("ledger.lib_update_unexplained_pct", unexplained(m["core.update_ns"],
		"trace.insert_ns", "trace.fuzzy_ops_ns", "plog.append_inline_ns", "trace.set_available_ns", "objects.apply_put_ns_1k"))
	p.res.set("ledger.lib_read_unexplained_pct", unexplained(m["core.read_ns"],
		"trace.epoch_ns", "objects.read_get_ns_1k"))
}
