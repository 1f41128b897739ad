package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// The in-process workloads drive onll's library surface
// (Open / Handle.Update / Handle.Read / Recover) from nWorkers
// goroutines, one handle each, closed loop.

// Op classes. Latency percentiles are taken per class and combined by
// op share (result.setLatency), which needs each class to be one
// population: lib-churn's deletes shift a whole sorted slice and cost
// forty times its puts, so they are a class of their own.
const (
	classRead = iota
	classUpdate
	classDelete
	nClasses
)

// stallNs is the update latency past which a sampled update counts as
// a stall (a compaction cut, not the steady path).
const stallNs = 50000

type libEnv struct {
	wl      workload
	pool    *pmem.Pool
	in      *core.Instance
	workers []*libWorker
	hash    streamHasher
}

// churnState is lib-churn's exact model: the live keys are the
// integers [lo, hi), each holding the value its put wrote.
type churnState struct {
	lo, hi uint64
	vals   []uint64 // value of key k at vals[k%len]
	offs   []uint32 // read offsets into the window
	phase  int      // put, get, del, get
}

type libWorker struct {
	id    int
	h     *core.Handle
	env   *libEnv
	cycle []step
	pos   int
	churn *churnState

	seq     uint64   // own update counter; values are seq<<8|id
	firstID uint64   // id of the window's first update
	nextID  uint64   // id the next update must carry
	seen    []uint64 // per key: highest value observed
	last    []uint64 // per key: last value this worker wrote (0: none)

	ops, updates, reads uint64
	errs, viol          uint64
	readFences          uint64 // persistent fences seen across sampled reads
	lat                 [nClasses][]uint32
	marks               []uint64 // cumulative ops at each slice boundary

	// Traced runs only: the read-route model (see routeShares).
	traced    bool
	lastEpoch uint64
	epochHits uint64
	spans     *tracer
}

func valueOf(seq uint64, w int) uint64 { return seq<<8 | uint64(w) }

// setupLib builds pool, instance, preload and op streams: everything a
// run needs before its timed window.
func setupLib(wl workload, seed int64) (*libEnv, error) {
	nw := nWorkers()
	if wl.churn {
		nw = 1
	}
	e := &libEnv{wl: wl, pool: pmem.New(poolBytes(wl.churn), nil)}
	in, err := core.New(e.pool, objects.OrderedMapSpec{}, libConfig(nw))
	if err != nil {
		return nil, err
	}
	e.in = in
	space := keySpace
	if wl.churn {
		space = churnKeys
	}
	h0 := in.Handle(0)
	for k := 0; k < space; k++ {
		if _, _, err := h0.Update(objects.OMapPut, uint64(k), valueOf(0, k%nw)); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	for w := 0; w < nw; w++ {
		lw := &libWorker{id: w, h: in.Handle(w), env: e}
		if wl.churn {
			cs := &churnState{hi: churnKeys, vals: make([]uint64, 2*churnKeys), offs: genOffsets(seed, cycleLen, churnKeys)}
			e.hash.addWords(cs.offs)
			lw.churn = cs
		} else {
			lw.cycle = genKeyed(seed, w, nw, cycleLen, keySpace, wl.updatePct)
			e.hash.addSteps(lw.cycle)
			lw.seen = make([]uint64, keySpace)
			lw.last = make([]uint64, keySpace)
		}
		lw.nextID = lw.h.NextOpID()
		lw.firstID = lw.nextID
		e.workers = append(e.workers, lw)
	}
	return e, nil
}

// step executes the worker's next operation, checks its result against
// the model and returns its class.
func (w *libWorker) step() int {
	if w.churn != nil {
		return w.churnStep()
	}
	s := w.cycle[w.pos]
	if w.pos++; w.pos == len(w.cycle) {
		w.pos = 0
	}
	k := s.key
	w.ops++
	if s.upd {
		w.seq++
		v := valueOf(w.seq, w.id)
		_, id, err := w.h.Update(objects.OMapPut, uint64(k), v)
		w.checkUpdate(id, err)
		w.seen[k], w.last[k] = v, v
		return classUpdate
	}
	w.checkRoute()
	ret := w.h.Read(objects.OMapGet, uint64(k))
	w.reads++
	// One writer per key and increasing values: a smaller value than
	// one already seen is a read that went back in time.
	if ret < w.seen[k] || ret == spec.RetMissing {
		w.viol++
	}
	w.seen[k] = ret
	return classRead
}

func (w *libWorker) churnStep() int {
	c := w.churn
	w.ops++
	ph := c.phase
	c.phase = (ph + 1) & 3
	switch ph {
	case 0: // put a fresh key above the window
		w.seq++
		v := valueOf(w.seq, 0)
		ret, id, err := w.h.Update(objects.OMapPut, c.hi, v)
		w.checkUpdate(id, err)
		if ret != spec.RetMissing {
			w.viol++
		}
		c.vals[c.hi%uint64(len(c.vals))] = v
		c.hi++
		return classUpdate
	case 2: // delete the oldest key
		ret, id, err := w.h.Update(objects.OMapDel, c.lo)
		w.checkUpdate(id, err)
		if ret != c.vals[c.lo%uint64(len(c.vals))] {
			w.viol++
		}
		c.lo++
		return classDelete
	}
	k := c.lo + uint64(c.offs[w.pos])
	if w.pos++; w.pos == len(c.offs) {
		w.pos = 0
	}
	w.checkRoute()
	ret := w.h.Read(objects.OMapGet, k)
	w.reads++
	if ret != c.vals[k%uint64(len(c.vals))] {
		w.viol++
	}
	return classRead
}

// checkUpdate counts a failed update and checks that ids are dense, so
// the gate can enumerate every returned update's id from firstID.
func (w *libWorker) checkUpdate(id uint64, err error) {
	w.updates++
	if err != nil || id != w.nextID {
		w.errs++
	}
	w.nextID = id + 1
}

// checkRoute models, from outside, which route the coming read takes:
// it is an epoch hit exactly when the trace's publication epoch has
// not moved since this handle's previous read began (the handle's own
// updates move it too). Traced runs only.
func (w *libWorker) checkRoute() {
	if !w.traced {
		return
	}
	e := w.env.in.Trace().Epoch(w.id)
	if e == w.lastEpoch {
		w.epochHits++
	}
	w.lastEpoch = e
}

// run drives the worker for dur, timing one op in every `every`.
func (w *libWorker) run(start time.Time, dur time.Duration, every int) {
	sliceNs := dur.Nanoseconds() / nSlices
	next := sliceNs
	pool := w.env.pool
	for {
		for i := 1; i < every; i++ {
			w.step()
		}
		pf := pool.StatsOf(w.id).PersistentFences
		t0 := time.Since(start)
		cls := w.step()
		t1 := time.Since(start)
		if cls == classRead {
			w.readFences += pool.StatsOf(w.id).PersistentFences - pf
		}
		d := t1 - t0
		if d > math.MaxUint32 {
			d = math.MaxUint32
		}
		w.lat[cls] = append(w.lat[cls], uint32(d))
		if w.spans != nil {
			w.spans.opSpan(cls, w.id, w.ops, start, t0, t1)
		}
		for t1.Nanoseconds() >= next && len(w.marks) < nSlices {
			w.marks = append(w.marks, w.ops)
			next += sliceNs
		}
		if t1 >= dur {
			return
		}
	}
}

// counters is the cumulative layer activity a window is differenced
// over.
type counters struct {
	pm     pmem.Stats
	lines  uint64
	fp     core.FastPathStats
	cmp    core.CompactionStats
	pr     core.PressureStats
	malloc uint64
	// readerFences sums the persistent fences of pids 1.., which behind
	// the server are the read handles.
	readerFences uint64
}

func readCounters(pool *pmem.Pool, in *core.Instance) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		pm: pool.TotalStats(), lines: pool.AllocatedLines(),
		fp: in.FastPathStats(), cmp: in.CompactionStats(), pr: in.Pressure(),
		malloc: ms.Mallocs,
	}
	for pid := 1; pid < in.NProcs(); pid++ {
		c.readerFences += pool.StatsOf(pid).PersistentFences
	}
	return c
}

// sampleEvery is how often an op is timed: often enough for a tail
// percentile per segment, rarely enough that clock reads stay under
// 1 % of the cheapest op. The strides are prime, so that over a run
// the timed ops visit every position of the op cycle and every phase
// of lib-churn's put-get-delete-get pattern.
func (wl workload) sampleEvery(traced bool) int {
	switch {
	case wl.churn:
		return 17
	case traced:
		return 61
	}
	return 127
}

// runLib measures one in-process workload for dur and gates it.
func runLib(wl workload, seed int64, dur time.Duration, tr *tracer, spares int) (*result, error) {
	res := newResult()
	e, spare, setupS, err := buildEnvs(spares, func() (*libEnv, error) { return setupLib(wl, seed) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS)
	res.set("gen.stream_hash", e.hash.value())

	every := wl.sampleEvery(tr != nil)
	for _, w := range e.workers {
		w.traced, w.spans = tr != nil, tr
		w.marks = make([]uint64, 0, nSlices)
		for c := range w.lat {
			w.lat[c] = make([]uint32, 0, 1<<20)
		}
	}
	runtime.GC()
	c0 := readCounters(e.pool, e.in)
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *libWorker) {
			defer wg.Done()
			w.run(start, dur, every)
		}(w)
	}
	wg.Wait()
	c1 := readCounters(e.pool, e.in)

	e.report(res, dur, c0, c1)
	recovers := e.gate(res)
	for _, sp := range spare {
		recovers = append(recovers, sp.recoverTimes(res)...)
	}
	res.set("recover_s", fastTwentieth(recovers))
	return res, nil
}

// report turns the window's samples and counter deltas into metrics.
func (e *libEnv) report(res *result, dur time.Duration, c0, c1 counters) {
	var ops, updates, reads, epochHits, readFences, sampledReads uint64
	lat := [nClasses][][]uint32{}
	marks := make([][]uint64, 0, len(e.workers))
	for _, w := range e.workers {
		ops += w.ops
		updates += w.updates
		reads += w.reads
		epochHits += w.epochHits
		readFences += w.readFences
		sampledReads += uint64(len(w.lat[classRead]))
		marks = append(marks, w.marks)
		for c := range lat {
			lat[c] = append(lat[c], w.lat[c])
		}
		res.failed += w.errs + w.viol
		if w.errs > 0 {
			res.violate("worker %d: %d updates failed or carried a non-dense id", w.id, w.errs)
		}
		if w.viol > 0 {
			res.violate("worker %d: %d results contradict the model (per-key monotonicity)", w.id, w.viol)
		}
	}
	res.attempted += ops
	res.set("ops_per_s", median(sliceRates(marks, dur)))

	rd, up := summarize(lat[classRead]), summarize(lat[classUpdate])
	res.setLatency(rd, up, summarize(lat[classDelete]))
	if rd.n > 0 {
		res.set("core.read_p50_ns", rd.p50)
		res.set("core.read_p99_ns", rd.p99)
	}
	if up.n > 0 {
		res.set("core.update_p50_ns", up.p50)
		res.set("core.update_p99_ns", up.p99)
	}
	var stalls []float64
	for _, s := range lat[classUpdate] {
		for _, ns := range s {
			if ns > stallNs {
				stalls = append(stalls, float64(ns)/1e3)
			}
		}
	}
	if up.n > 0 {
		res.set("core.update_stalls_per_kupdate", 1e3*float64(len(stalls))/float64(up.n))
		res.set("core.update_stall_p50_us", median(stalls))
	}

	res.setDeviceCosts(c0, c1, updates)
	if sampledReads > 0 {
		res.set("pfences_per_read", float64(readFences)/float64(sampledReads))
		if readFences != 0 {
			res.failed += readFences
			res.violate("%d persistent fences issued inside %d sampled reads", readFences, sampledReads)
		}
	}
	res.set("core.allocs_per_op", float64(c1.malloc-c0.malloc)/float64(ops))
	if reads > 0 {
		slot := float64(c1.fp.SlotReads-c0.fp.SlotReads) / float64(reads)
		res.set("core.read_slot_share", slot)
		res.set("core.adoptions_per_kread", 1e3*float64(c1.fp.Adoptions-c0.fp.Adoptions)/float64(reads))
		if e.workers[0].traced {
			hit := float64(epochHits) / float64(reads)
			res.set("core.read_epoch_hit_share", hit)
			res.set("core.read_walk_share", math.Max(0, 1-hit-slot))
		}
	}
	if updates > 0 {
		res.set("core.publishes_per_kupdate", 1e3*float64(c1.fp.Publishes-c0.fp.Publishes)/float64(updates))
		res.setOpsPerRecord(e.in)
	}
}

// gate is the correctness check every run ends with: crash the pool
// with nothing unfenced surviving, recover, and hold the recovered
// object against what the workers were told. It returns the
// environment's recovery times (measureRecover).
func (e *libEnv) gate(res *result) []float64 {
	sp := objects.OrderedMapSpec{}
	cfg := libConfig(len(e.workers))
	e.pool.Crash(pmem.DropAll)
	in, rep, err := core.Recover(e.pool, sp, cfg)
	if err != nil {
		res.failed++
		res.violate("recover: %v", err)
		return nil
	}
	// (a) every update that returned was linearized.
	for _, w := range e.workers {
		lost := 0
		for id := w.firstID; id < w.nextID; id++ {
			if _, ok := rep.WasLinearized(id); !ok {
				lost++
			}
		}
		res.attempted += w.nextID - w.firstID
		if lost > 0 {
			res.failed += uint64(lost)
			res.violate("worker %d: %d returned updates not linearized after recovery", w.id, lost)
		}
	}
	// (b) the recovered state is exactly the model.
	h := in.Handle(0)
	bad := 0
	key := func(i int) uint64 { return uint64(i % keySpace) }
	if c := e.workers[0].churn; c != nil {
		if h.Read(objects.OMapLen) != c.hi-c.lo || h.Read(objects.OMapMin) != c.lo {
			bad++
		}
		for k := c.lo; k < c.hi; k++ {
			if h.Read(objects.OMapGet, k) != c.vals[k%uint64(len(c.vals))] {
				bad++
			}
		}
		res.attempted += c.hi - c.lo
		key = func(i int) uint64 { return c.lo + uint64(i)%(c.hi-c.lo) }
	} else {
		for k := 0; k < keySpace; k++ {
			want := e.workers[k%len(e.workers)].last[k]
			if want == 0 {
				want = valueOf(0, k%len(e.workers))
			}
			if h.Read(objects.OMapGet, uint64(k)) != want {
				bad++
			}
		}
		res.attempted += keySpace
	}
	if bad > 0 {
		res.failed += uint64(bad)
		res.violate("%d keys differ from their owner's last write after recovery", bad)
	}
	return measureRecover(res, e.pool, in, cfg, e.updaters(), key)
}

// updaters is how many of the instance's handles update.
func (e *libEnv) updaters() int {
	if e.wl.updatePct == 0 {
		return 0
	}
	return len(e.workers)
}

// recoverTimes is measureRecover on a spare environment, which holds
// the preloaded object and has run no window.
func (e *libEnv) recoverTimes(res *result) []float64 {
	cfg := libConfig(len(e.workers))
	e.pool.Crash(pmem.DropAll)
	in, _, err := core.Recover(e.pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		res.failed++
		res.violate("recover (spare environment): %v", err)
		return nil
	}
	window := uint64(keySpace)
	if e.wl.churn {
		window = churnKeys
	}
	return measureRecover(res, e.pool, in, cfg, e.updaters(), func(i int) uint64 { return uint64(i) % window })
}

const (
	// settleTail is how many updates each handle logs past its fresh
	// chain base before recovery is timed.
	settleTail = 256
	// settleLimit bounds the updates a handle spends reaching a base.
	settleLimit = 1 << 17
)

// measureRecover returns the times in seconds of several
// crash-and-recover repeats on the pool. A run's recover_s is the 5th
// percentile of the repeats of all its environments, 60 to 250 of them
// over a second or two.
//
// Recovery only reads NVM, so every repeat does the same work on the
// same bytes, and whatever makes one slower than another is not the
// program's doing. Part of it was the Go heap's: a recovery allocates a
// new instance, and whether a collection cycle is running beside it and
// whether its memory is fresh or must be cleared moved a repeat between
// 0.5 and 0.9 ms, so each repeat starts from a collected heap. Even so a
// run's repeats fall in two modes a third apart (0.47-0.50 and 0.64-0.68
// ms on svc-update-persist), the fast one holding 10-70 % of them, and
// the host has slow phases of its own (buildEnvs): over eight runs the
// median of the repeats moved by 25 % and their lowest decile by 14 %.
// The noise only ever adds time, so the fast end is the speed of the
// program; but one repeat in a few hundred is a tenth faster than the
// rest of the fast mode, and the very fastest of 250 met one in four
// runs of ten (12 % spread). The 5th percentile is past those and
// inside the fast mode.
//
// The image a timed window leaves behind depends on where it stopped —
// how long each log's tail is, how deep each delta chain — and that
// alone moved the recovery time by tens of percent between runs. So
// the image is first brought to a known shape: each of the first
// `updaters` handles of in, the instance the gate recovered, overwrites
// key(i) until it has cut a fresh chain base, then logs settleTail more
// updates. What is timed is then the recovery of this workload's state
// size with a full chain restart and a fixed log tail behind it.
func measureRecover(res *result, pool *pmem.Pool, in *core.Instance, cfg core.Config, updaters int, key func(i int) uint64) []float64 {
	for pid := 0; pid < updaters; pid++ {
		h := in.Handle(pid)
		bases := in.CompactionStats().Bases
		tail := -1
		for i := 0; i < settleLimit && tail != 0; i++ {
			if _, _, err := h.Update(objects.OMapPut, key(i), uint64(i)); err != nil {
				res.failed++
				res.violate("settling the image for recover_s: %v", err)
				return nil
			}
			switch {
			case tail > 0:
				tail--
			case in.CompactionStats().Bases > bases:
				tail = settleTail
			}
		}
	}
	var times []float64
	start := time.Now()
	for len(times) < 5 || (time.Since(start) < 150*time.Millisecond && len(times) < 21) {
		pool.Crash(pmem.DropAll)
		runtime.GC()
		t0 := time.Now()
		_, _, err := core.Recover(pool, objects.OrderedMapSpec{}, cfg)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			res.failed++
			res.violate("recover: %v", err)
			return nil
		}
	}
	return times
}
