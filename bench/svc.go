package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/spec"
)

// The service workloads drive internal/server over loopback TCP from
// nWorkers connections of the bench's raw wire client.

// ringSize bounds the requests one connection may have in flight: more
// than one second of the top ladder rung.
const ringSize = 1 << 18

// pending is what the receiving side needs to know about a request in
// flight, found by tag.
type pending struct {
	t   int64 // ns since window start: send time (closed) or due time (open)
	key uint32
	cls uint8
}

// reqRecord is a completed request kept by a traced run for the join
// with the server's timing ring.
type reqRecord struct {
	tag        uint32
	cls        uint8
	start, end int64 // Unix ns
}

type svcEnv struct {
	wl     workload
	pool   *pmem.Pool
	in     *core.Instance
	srv    *server.Server
	conns  []*svcConn
	hash   streamHasher
	gaps   []float64 // open loop: unit-mean exponential arrival gaps
	gapPos int
	traced bool
}

type svcConn struct {
	id, nc int
	env    *svcEnv
	wc     *wireConn
	cycle  []step
	pos    int
	ring   []pending

	sent  uint64        // requests written; owned by the sending side
	recvd atomic.Uint64 // responses handled; the open-loop sender reads it
	final atomic.Uint64 // open loop: response count that ends the rung
	seq   uint64        // own update counter; values are seq<<8|id
	seen  []uint64      // per key: highest value a read returned
	last  []uint64      // per key: last value this connection wrote

	ids        []uint64 // ids of acknowledged updates
	errs, viol uint64
	recs       []reqRecord

	// Per-window measurement state (begin resets it).
	base        int64 // Unix ns of the window start
	lat         [nClasses][]uint32
	done        [nClasses]uint64
	marks       []uint64
	lastRecvNs  int64
	sliceNs     int64
	nextSliceNs int64
}

// setupSvc builds pool, instance, preload, server and connections.
func setupSvc(wl workload, seed int64, traced bool) (*svcEnv, error) {
	e := &svcEnv{wl: wl, pool: pmem.New(poolBytes(false), nil), traced: traced}
	in, err := core.New(e.pool, objects.OrderedMapSpec{}, svcCoreConfig())
	if err != nil {
		return nil, err
	}
	e.in = in
	nc := nWorkers()
	// Preload through the batcher's handle before the server owns it.
	h0 := in.Handle(0)
	for k := 0; k < keySpace; k++ {
		if _, _, err := h0.Update(objects.OMapPut, uint64(k), valueOf(0, k%nc)); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	if e.srv, err = server.New(in, svcConfig(traced)); err != nil {
		return nil, err
	}
	if err := e.srv.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for c := 0; c < nc; c++ {
		wc, err := dialWire(e.srv.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		sc := &svcConn{
			id: c, nc: nc, env: e, wc: wc,
			cycle: genKeyed(seed, c, nc, cycleLen, keySpace, wl.updatePct),
			ring:  make([]pending, ringSize),
			seen:  make([]uint64, keySpace),
			last:  make([]uint64, keySpace),
		}
		e.hash.addSteps(sc.cycle)
		e.conns = append(e.conns, sc)
	}
	if wl.open {
		e.gaps = genArrivals(seed, cycleLen)
		e.hash.addFloats(e.gaps)
	}
	return e, nil
}

// close tears down connections and drains the server: after it every
// acknowledged update has been fenced.
func (e *svcEnv) close() {
	for _, c := range e.conns {
		c.wc.close()
	}
	e.srv.Close()
}

// begin resets the connection's per-window measurement state.
func (c *svcConn) begin(start time.Time, dur time.Duration) {
	c.base = start.UnixNano()
	for k := range c.lat {
		c.lat[k] = make([]uint32, 0, 1<<18)
	}
	c.done = [nClasses]uint64{}
	c.marks = make([]uint64, 0, nSlices)
	c.sliceNs = dur.Nanoseconds() / nSlices
	c.nextSliceNs = c.sliceNs
	c.lastRecvNs = 0
}

func (c *svcConn) nextTag() (uint32, *pending) {
	slot := &c.ring[c.sent%ringSize]
	// Tags are ≡ connection id mod connection count, so a row of the
	// server's timing dump joins to exactly one client record.
	tag := uint32(c.sent)*uint32(c.nc) + uint32(c.id)
	c.sent++
	return tag, slot
}

// sendNext encodes the connection's next request, stamped with t.
func (c *svcConn) sendNext(t int64) error {
	s := c.cycle[c.pos]
	if c.pos++; c.pos == len(c.cycle) {
		c.pos = 0
	}
	tag, slot := c.nextTag()
	slot.t, slot.key = t, s.key
	if s.upd {
		c.seq++
		v := valueOf(c.seq, c.id)
		c.last[s.key] = v
		slot.cls = classUpdate
		return c.wc.send(tag, c.env.wl.updKind, objects.OMapPut, uint64(s.key), v)
	}
	slot.cls = classRead
	return c.wc.send(tag, kindRead, objects.OMapGet, uint64(s.key))
}

// handle accounts one response received at now (ns since window start).
func (c *svcConn) handle(r response, now int64) {
	slot := &c.ring[uint64(r.tag)/uint64(c.nc)%ringSize]
	d := now - slot.t
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	c.lat[slot.cls] = append(c.lat[slot.cls], uint32(d))
	c.done[slot.cls]++
	switch {
	case r.status != 0:
		c.errs++
	case slot.cls == classUpdate:
		c.ids = append(c.ids, r.id)
	default:
		// One writer per key, increasing values, one read handle per
		// connection: a value below one already seen went back in time.
		if r.ret < c.seen[slot.key] || r.ret == spec.RetMissing {
			c.viol++
		}
		c.seen[slot.key] = r.ret
	}
	if c.env.traced && len(c.recs) < maxSpans/8 {
		c.recs = append(c.recs, reqRecord{tag: r.tag, cls: slot.cls, start: c.base + slot.t, end: c.base + now})
	}
	c.lastRecvNs = now
	for now >= c.nextSliceNs && len(c.marks) < nSlices {
		c.marks = append(c.marks, c.done[classRead]+c.done[classUpdate]-1)
		c.nextSliceNs += c.sliceNs
	}
	c.recvd.Add(1)
}

// runClosed keeps svcWindow requests outstanding for dur: every batch
// of responses read is answered with as many new requests and one
// flush. One goroutine, so latency is send → receive with nothing in
// between but the service.
func (c *svcConn) runClosed(start time.Time, dur time.Duration) error {
	now := time.Since(start).Nanoseconds()
	for i := 0; i < svcWindow; i++ {
		if err := c.sendNext(now); err != nil {
			return err
		}
	}
	if err := c.wc.flush(); err != nil {
		return err
	}
	for c.recvd.Load() < c.sent {
		r, err := c.wc.recv()
		if err != nil {
			return err
		}
		now = time.Since(start).Nanoseconds()
		c.handle(r, now)
		n := 1
		for c.wc.ready() {
			if r, err = c.wc.recv(); err != nil {
				return err
			}
			c.handle(r, now)
			n++
		}
		if now >= dur.Nanoseconds() {
			continue // window over: drain what is in flight
		}
		for i := 0; i < n; i++ {
			if err := c.sendNext(now); err != nil {
				return err
			}
		}
		if err := c.wc.flush(); err != nil {
			return err
		}
	}
	return nil
}

// runAllClosed runs every connection's closed loop for dur.
func (e *svcEnv) runAllClosed(dur time.Duration) error {
	start := time.Now()
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		c.begin(start, dur)
		wg.Add(1)
		go func(i int, c *svcConn) {
			defer wg.Done()
			errs[i] = c.runClosed(start, dur)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Open loop.
// ---------------------------------------------------------------------

// planRung returns how many arrivals of the gap cycle, from position
// pos on, fall inside dur at the given rate.
func planRung(gaps []float64, pos int, rate float64, dur time.Duration) int {
	n, t := 0, 0.0
	for {
		t += gaps[(pos+n)%len(gaps)] / rate
		if t >= dur.Seconds() {
			return n
		}
		n++
	}
}

// pacer is the open-loop generator's clock discipline, separate from
// the sockets so that it can be tested against a no-op sink: it calls
// send(i, due) for each of n arrivals as it falls due and flush()
// after each burst, and records how late each send began.
//
// It busy-waits on the monotonic clock, pinned to its thread. No
// time.Sleep, timer or runtime.Gosched: a sleeping sender wakes ~0.5 ms
// late on Linux and a yielding one starves netpoll, and both were once
// mistaken for service latency (README, "the generator finding"). Each
// request is stamped with the time it was DUE, so a stall delays later
// requests but does not hide their wait.
type pacer struct {
	gaps []float64
	pos  int
	rate float64

	late   []uint32 // ns each request was sent after it was due
	sendNs int64    // time spent inside send and flush
	sent   int
}

// run paces n arrivals; stop is polled after each burst and ends the
// rung early when it returns true.
func (p *pacer) run(start time.Time, n int, send func(i int, due int64) error, flush func() error, stop func() bool) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer isolateThread()()
	p.late = make([]uint32, 0, n)
	gap := func(i int) time.Duration {
		return time.Duration(p.gaps[(p.pos+i)%len(p.gaps)] / p.rate * float64(time.Second))
	}
	next := gap(0)
	for p.sent < n {
		now := time.Since(start)
		if now < next {
			continue
		}
		for p.sent < n && next <= now {
			late := now - next
			if late > math.MaxUint32 {
				late = math.MaxUint32
			}
			p.late = append(p.late, uint32(late))
			if err := send(p.sent, next.Nanoseconds()); err != nil {
				return err
			}
			p.sent++
			next += gap(p.sent)
		}
		if err := flush(); err != nil {
			return err
		}
		p.sendNs += (time.Since(start) - now).Nanoseconds()
		if stop() {
			return nil
		}
	}
	return nil
}

// lateness returns the median and 99th percentile, in microseconds, of
// how late the sends began. It sorts the samples in place.
func (p *pacer) lateness() (p50, p99 float64) {
	slices.Sort(p.late)
	return percentile(p.late, 0.50) / 1e3, percentile(p.late, 0.99) / 1e3
}

func (e *svcEnv) outstanding() uint64 {
	var n uint64
	for _, c := range e.conns {
		n += c.sent - c.recvd.Load()
	}
	return n
}

// sendFinal marks the end of a rung on this connection: the reader
// stops at the response to one extra read. The count is published
// before the read is sent, so the reader cannot miss it.
func (c *svcConn) sendFinal(t int64) error {
	c.final.Store(c.sent + 1)
	tag, slot := c.nextTag()
	*slot = pending{t: t, cls: classRead}
	if err := c.wc.send(tag, kindRead, objects.OMapGet, 0); err != nil {
		return err
	}
	return c.wc.flush()
}

// recvOpen handles responses until the rung's final count is reached.
func (c *svcConn) recvOpen(start time.Time) error {
	for {
		if f := c.final.Load(); f != 0 && c.recvd.Load() >= f {
			return nil
		}
		r, err := c.wc.recv()
		if err != nil {
			return err
		}
		c.handle(r, time.Since(start).Nanoseconds())
	}
}

// runRung offers rate for dur and returns the rung's outcome and the
// pacer's account of itself.
func (e *svcEnv) runRung(rate float64, dur time.Duration) (rung, *pacer, error) {
	n := planRung(e.gaps, e.gapPos, rate, dur)
	p := &pacer{gaps: e.gaps, pos: e.gapPos, rate: rate}
	e.gapPos += n
	start := time.Now()
	var failed0 uint64
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		c.begin(start, dur)
		c.final.Store(0)
		failed0 += c.errs + c.viol
		wg.Add(1)
		go func(i int, c *svcConn) {
			defer wg.Done()
			errs[i] = c.recvOpen(start)
		}(i, c)
	}
	nc := len(e.conns)
	dirty := make([]bool, nc)
	// Abandon past one second of offered load, and before the tag ring
	// could wrap.
	limit := min(uint64(rate), ringSize)
	r := rung{offered: rate}
	err := p.run(start, n,
		func(i int, due int64) error {
			dirty[i%nc] = true
			return e.conns[i%nc].sendNext(due)
		},
		func() error {
			for i, d := range dirty {
				if d {
					dirty[i] = false
					if err := e.conns[i].wc.flush(); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() bool {
			r.abandoned = e.outstanding() > limit
			return r.abandoned
		})
	r.backlogEnd = int(e.outstanding())
	for _, c := range e.conns {
		if err == nil {
			err = c.sendFinal(time.Since(start).Nanoseconds())
		}
	}
	if err != nil {
		// A closed connection ends its reader too.
		for _, c := range e.conns {
			c.wc.close()
		}
	}
	wg.Wait()
	for _, rerr := range errs {
		if err == nil {
			err = rerr
		}
	}
	if err != nil {
		return r, p, err
	}
	var completed, failed1 uint64
	var lastRecv int64
	for _, c := range e.conns {
		completed += c.done[classRead] + c.done[classUpdate]
		failed1 += c.errs + c.viol
		lastRecv = max(lastRecv, c.lastRecvNs)
	}
	r.failed = int(failed1 - failed0)
	r.achieved = float64(completed) / max(dur.Seconds(), float64(lastRecv)/1e9)
	lat := e.latencies()
	r.p99Us = max(summarize(lat[classRead]).p99, summarize(lat[classUpdate]).p99) / 1e3
	r.lateP50Us, _ = p.lateness()
	return r, p, nil
}

// latencies returns the current window's samples by class and
// connection.
func (e *svcEnv) latencies() [nClasses][][]uint32 {
	var lat [nClasses][][]uint32
	for _, c := range e.conns {
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k])
		}
	}
	return lat
}

// ---------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------

// runSvc measures one service workload for dur and gates it. An
// untraced open-loop run is one rung at refRate; a traced one climbs
// the ladder, dur split over its rungs, and reports the first rung.
func runSvc(wl workload, seed int64, dur time.Duration, tr *tracer, spares int) (*result, error) {
	res := newResult()
	e, spare, setupS, err := buildEnvs(spares, func() (*svcEnv, error) { return setupSvc(wl, seed, tr != nil) })
	closeAll := func() {
		for _, sp := range spare {
			sp.close()
		}
		if e != nil { // nil when a build failed
			e.close()
		}
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	res.set("setup_s", setupS)
	res.set("gen.stream_hash", e.hash.value())

	runtime.GC()
	c0 := readCounters(e.pool, e.in)
	s0 := e.srv.Stats()
	t0 := time.Now()
	switch {
	case !wl.open:
		err = e.runAllClosed(dur)
		if err == nil {
			e.reportWindow(res, dur)
		}
	case tr == nil:
		var r rung
		var p *pacer
		if r, p, err = e.runRung(refRate, dur); err == nil {
			e.reportWindow(res, dur)
			reportPacer(res, p)
			if !r.valid() {
				// Not a wrong output of the program, so not a failure:
				// but the latencies of this run are the generator's.
				fmt.Printf("  WARNING: generator late at the reference rate (lateness p50 %.1f µs > 5): this run's latencies are void\n", r.lateP50Us)
			}
		}
	default:
		err = e.runLadder(res, dur, tr)
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	elapsed := time.Since(t0).Seconds()
	c1 := readCounters(e.pool, e.in)
	s1 := e.srv.Stats()
	e.reportCounters(res, c0, c1, s0, s1, elapsed)
	if tr != nil && !wl.open {
		err = e.joinTimings(res, tr)
	}
	closeAll()
	if err != nil {
		return nil, err
	}
	if wl.updatePct > 0 {
		res.setOpsPerRecord(e.in) // the batcher has stopped: its log is quiet
	}
	recovers := e.recoverAndCheck(res, true)
	for _, sp := range spare {
		recovers = append(recovers, sp.recoverAndCheck(res, false)...)
	}
	res.set("recover_s", fastTwentieth(recovers))
	return res, nil
}

// runLadder climbs the rate ladder, stopping at the first rung that
// fails, and reports the reference rung's window. The server's timing
// ring keeps only the latest requests, so the reference rung is joined
// to it before the next rung overwrites them.
func (e *svcEnv) runLadder(res *result, dur time.Duration, tr *tracer) error {
	per := dur / time.Duration(len(ladder))
	var rungs []rung
	for i, rate := range ladder {
		r, p, err := e.runRung(rate, per)
		if err != nil {
			return err
		}
		if i == 0 {
			e.reportWindow(res, per)
			reportPacer(res, p)
			if err := e.joinTimings(res, tr); err != nil {
				return err
			}
			e.traced = false
		}
		rungs = append(rungs, r)
		fmt.Printf("  rung %6.0f rps: achieved %8.0f, backlog %d, p99 %.0f µs, late p50 %.2f µs, failed %d, abandoned %v -> ok=%v\n",
			r.offered, r.achieved, r.backlogEnd, r.p99Us, r.lateP50Us, r.failed, r.abandoned, r.ok())
		if !r.ok() {
			break
		}
	}
	res.set("max_rate_ok_rps", maxRateOK(rungs))
	return nil
}

func reportPacer(res *result, p *pacer) {
	p50, p99 := p.lateness()
	res.set("gen.late_p50_us", p50)
	res.set("gen.late_p99_us", p99)
	if p.sent > 0 {
		res.set("gen.send_ns", float64(p.sendNs)/float64(p.sent))
	}
}

// reportWindow records throughput and latency of the window that just
// ended.
func (e *svcEnv) reportWindow(res *result, dur time.Duration) {
	marks := make([][]uint64, 0, len(e.conns))
	for _, c := range e.conns {
		marks = append(marks, c.marks)
	}
	res.set("ops_per_s", median(sliceRates(marks, dur)))
	lat := e.latencies()
	res.setLatency(summarize(lat[classRead]), summarize(lat[classUpdate]))
}

// reportCounters records what the run's requests cost the layers.
func (e *svcEnv) reportCounters(res *result, c0, c1 counters, s0, s1 server.Stats, elapsed float64) {
	var acked uint64
	for _, c := range e.conns {
		acked += uint64(len(c.ids))
		res.attempted += c.sent
		res.failed += c.errs + c.viol
		if c.errs > 0 {
			res.violate("connection %d: %d requests answered with an error status", c.id, c.errs)
		}
		if c.viol > 0 {
			res.violate("connection %d: %d reads went back in time (per-key monotonicity)", c.id, c.viol)
		}
	}
	res.setDeviceCosts(c0, c1, acked)
	reads := s1.Reads - s0.Reads
	if reads > 0 {
		// Reads run on pids 1.., updates on the batcher's pid 0: every
		// persistent fence of a read handle is a fence inside a read.
		rf := c1.readerFences - c0.readerFences
		res.set("pfences_per_read", float64(rf)/float64(reads))
		if rf != 0 {
			res.failed += rf
			res.violate("%d persistent fences issued by read handles over %d reads", rf, reads)
		}
		res.set("core.read_slot_share", float64(c1.fp.SlotReads-c0.fp.SlotReads)/float64(reads))
		res.set("core.adoptions_per_kread", 1e3*float64(c1.fp.Adoptions-c0.fp.Adoptions)/float64(reads))
	}
	if flushes := s1.Flushes - s0.Flushes; flushes > 0 {
		res.set("server.avg_batch", float64(s1.Batched-s0.Batched)/float64(flushes))
		res.set("server.flushes_per_s", float64(flushes)/elapsed)
	}
	if upd := s1.Updates - s0.Updates; upd > 0 {
		res.set("server.pfences_per_update", float64(c1.pm.PersistentFences-c0.pm.PersistentFences)/float64(upd))
		res.set("core.publishes_per_kupdate", 1e3*float64(c1.fp.Publishes-c0.fp.Publishes)/float64(upd))
	}
}

// recoverAndCheck is the correctness gate every run ends with, and the
// environment's recovery times (measureRecover). The server has been
// closed, which fences everything it acknowledged in either ack mode:
// crash the pool with nothing unfenced surviving, recover, and hold
// the recovered object against what the connections were told. A spare
// environment served no requests, so it holds the preloaded object and
// the check is skipped.
func (e *svcEnv) recoverAndCheck(res *result, check bool) []float64 {
	sp := objects.OrderedMapSpec{}
	cfg := svcCoreConfig()
	e.pool.Crash(pmem.DropAll)
	in, rep, err := core.Recover(e.pool, sp, cfg)
	if err != nil {
		res.failed++
		res.violate("recover: %v", err)
		return nil
	}
	if check {
		e.check(res, in, rep)
	}
	updaters := 1 // behind the server only the batcher's handle updates
	if e.wl.updatePct == 0 {
		updaters = 0
	}
	return measureRecover(res, e.pool, in, cfg, updaters, func(i int) uint64 { return uint64(i % keySpace) })
}

// check holds the recovered instance against the connections' model.
func (e *svcEnv) check(res *result, in *core.Instance, rep *core.Report) {
	for _, c := range e.conns {
		lost := 0
		for _, id := range c.ids {
			if _, ok := rep.WasLinearized(id); !ok {
				lost++
			}
		}
		res.attempted += uint64(len(c.ids))
		if lost > 0 {
			res.failed += uint64(lost)
			res.violate("connection %d: %d acknowledged updates not linearized after recovery", c.id, lost)
		}
	}
	h := in.Handle(1)
	bad := 0
	for k := 0; k < keySpace; k++ {
		want := e.conns[k%len(e.conns)].last[k]
		if want == 0 {
			want = valueOf(0, k%len(e.conns))
		}
		if h.Read(objects.OMapGet, uint64(k)) != want {
			bad++
		}
	}
	res.attempted += keySpace
	if bad > 0 {
		res.failed += uint64(bad)
		res.violate("%d keys differ from their owner's last write after recovery", bad)
	}
}

// ---------------------------------------------------------------------
// Traced runs: the join with the server's timing ring.
// ---------------------------------------------------------------------

// joinTimings reads the server's per-request timing dump, joins it to
// the client's records by tag, and records the stage percentiles
// and the spans: client.request with children server.queue,
// server.batch_wait and server.respond. Both sides stamp Unix
// nanoseconds.
func (e *svcEnv) joinTimings(res *result, tr *tracer) error {
	var buf bytes.Buffer
	if err := e.srv.DumpTimings(&buf); err != nil {
		return err
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		return fmt.Errorf("timing dump: %w", err)
	}
	type stamps struct{ enqueue, stage, persist, respond int64 }
	byTag := make(map[uint32]stamps, len(rows))
	for _, row := range rows[min(1, len(rows)):] {
		if len(row) != 10 {
			return fmt.Errorf("timing dump: row has %d columns, want 10 (%s)", len(row), server.CSVHeader)
		}
		var v [5]int64
		for i, col := range []int{0, 6, 7, 8, 9} {
			if v[i], err = strconv.ParseInt(row[col], 10, 64); err != nil {
				return fmt.Errorf("timing dump: %w", err)
			}
		}
		byTag[uint32(v[0])] = stamps{v[1], v[2], v[3], v[4]}
	}
	persistAck := e.wl.updKind == kindUpdatePersist
	var queue, wait, respond []uint32
	clip := func(ns int64) uint32 { return uint32(max(0, min(ns, math.MaxUint32))) }
	for _, c := range e.conns {
		for _, rec := range c.recs {
			req := uint64(rec.tag)
			id := tr.add(0, req, "client.request", rec.start, rec.end)
			s, ok := byTag[rec.tag]
			if !ok || rec.cls != classUpdate || s.respond == 0 {
				continue
			}
			tr.add(id, req, "server.queue", s.enqueue, s.stage)
			tr.add(id, req, "server.batch_wait", s.stage, s.persist)
			queue = append(queue, clip(s.stage-s.enqueue))
			wait = append(wait, clip(s.persist-s.stage))
			// Ack-on-linearize answers from the stage, before the
			// fence; ack-on-persist after it.
			from := s.stage
			if persistAck {
				from = s.persist
			}
			tr.add(id, req, "server.respond", from, s.respond)
			respond = append(respond, clip(s.respond-from))
		}
	}
	if len(queue) == 0 {
		return nil
	}
	slices.Sort(queue)
	slices.Sort(wait)
	slices.Sort(respond)
	q50, w50, r50 := percentile(queue, 0.5)/1e3, percentile(wait, 0.5)/1e3, percentile(respond, 0.5)/1e3
	res.set("server.queue_p50_us", q50)
	res.set("server.batch_wait_p50_us", w50)
	res.set("server.batch_wait_p99_us", percentile(wait, 0.99)/1e3)
	res.set("server.respond_p50_us", r50)
	if client := res.m["update_p50_us"]; client > 0 {
		explained := q50 + r50
		if persistAck {
			explained += w50
		}
		res.set("ledger.svc_update_unexplained_pct", 100*(client-explained)/client)
	}
	return nil
}
