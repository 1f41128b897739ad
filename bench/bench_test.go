package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/server"
)

// smokeWindow is the measured window of the smoke tests: long enough
// for every code path of a workload to run (several compaction cuts,
// several batches), short enough that the whole package stays within
// ten seconds. No test here asserts a timing.
const smokeWindow = 120 * time.Millisecond

// Every workload, untraced and traced, with its correctness gate: the
// harness cannot rot without tier-1 noticing.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := wl.run(1, smokeWindow, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, endToEnd)

			tr := newTracer(t.TempDir())
			res, err = wl.run(1, smokeWindow, tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, nil)
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if _, err := tr.write(wl.name); err != nil {
				t.Error(err)
			}
			if wl.updatePct == 0 {
				// Layer separation: a read-only workload leaves the
				// write path's metrics absent.
				for _, name := range []string{"pfences_per_update", "nvm_write_bytes_per_update", "server.avg_batch"} {
					if v, ok := res.m[name]; ok {
						t.Errorf("%s = %v on a read-only workload, want absent", name, v)
					}
				}
				if v := res.m["pfences_per_read"]; v != 0 {
					t.Errorf("pfences_per_read = %v, want exactly 0", v)
				}
			}
		})
	}
}

// checkRun fails the test unless the run was correct, named only
// registered metrics and measured every metric of want.
func checkRun(t *testing.T, res *result, want []metric) {
	t.Helper()
	if !res.correct() {
		t.Errorf("run incorrect: failed %d of %d: %v", res.failed, res.attempted, res.violations)
	}
	if res.attempted == 0 {
		t.Error("run attempted nothing")
	}
	if unk := res.unknown(); len(unk) > 0 {
		t.Errorf("metrics missing from the registry: %v", unk)
	}
	for _, d := range want {
		if !(res.m[d.name] > 0) {
			t.Errorf("%s = %v, want > 0", d.name, res.m[d.name])
		}
	}
}

// The probes run once each and fill every probe metric and ledger line.
func TestProbes(t *testing.T) {
	tr := newTracer(t.TempDir())
	p := &prober{res: newResult(), tr: tr, rounds: 1}
	p.all(1)
	if !p.res.correct() {
		t.Fatalf("probes failed: %v", p.res.violations)
	}
	if unk := p.res.unknown(); len(unk) > 0 {
		t.Errorf("metrics missing from the registry: %v", unk)
	}
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.name, ".")
		switch layer {
		case "pmem", "plog", "trace", "objects", "shard":
			if strings.HasSuffix(d.name, "_per_update") || strings.HasSuffix(d.name, "_per_kupdate") ||
				d.name == "pmem.lines_per_fence" || d.name == "plog.ops_per_record" {
				continue // counted on a workload, not probed
			}
			if _, ok := p.res.m[d.name]; !ok {
				t.Errorf("probe metric %s not measured", d.name)
			}
		}
	}
	for _, name := range []string{"core.update_ns", "core.read_ns", "core.stage_ns", "core.flush_ns_b64",
		"core.recover_ns_per_record", "server.rtt_depth1_read_p50_us", "server.client_overhead_us",
		"ledger.lib_update_unexplained_pct", "ledger.lib_read_unexplained_pct"} {
		if _, ok := p.res.m[name]; !ok {
			t.Errorf("probe metric %s not measured", name)
		}
	}
}

// The gate must bite: an update that was reported as returned but was
// never fenced (staged through the batch entry point and not flushed)
// is gone after the crash, and the gate has to say so twice — its id
// is not linearized, and its key does not hold the value.
func TestGateCatchesUnfencedUpdate(t *testing.T) {
	wl, err := findWorkload("lib-update")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setupLib(wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	for i := 0; i < 1000; i++ {
		w.step()
	}
	clean := newResult()
	// A faithful copy of what the gate sees after an honest run: none
	// of it may be flagged.
	_, id, err := w.h.NewBatch().Stage(objects.OMapPut, 0, valueOf(1<<40, 0))
	if err != nil {
		t.Fatal(err)
	}
	w.checkUpdate(id, nil)
	w.last[0] = valueOf(1<<40, 0)
	if rec := e.gate(clean); !(fastTwentieth(rec) > 0) {
		t.Errorf("gate measured recovery times %v", rec)
	}
	if clean.correct() {
		t.Fatal("gate accepted a run whose last update was never fenced")
	}
	if clean.failed != 2 {
		t.Errorf("gate counted %d failures, want 2 (id not linearized, key not at its owner's last write): %v",
			clean.failed, clean.violations)
	}
}

func TestStreamDeterminism(t *testing.T) {
	hash := func(seed int64) float64 {
		var h streamHasher
		for w := 0; w < 2; w++ {
			h.addSteps(genKeyed(seed, w, 2, cycleLen, keySpace, 50))
		}
		h.addWords(genOffsets(seed, cycleLen, churnKeys))
		h.addFloats(genArrivals(seed, cycleLen))
		return h.value()
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("same seed, different stream hash: %v vs %v", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Errorf("different seeds, same stream hash %v", a)
	}
	// Owner partition: worker w's updates touch only keys ≡ w mod nw,
	// and the mix is what was asked for.
	for w := 0; w < 2; w++ {
		upd := 0
		for _, s := range genKeyed(7, w, 2, cycleLen, keySpace, 50) {
			if s.key >= keySpace {
				t.Fatalf("key %d outside [0,%d)", s.key, keySpace)
			}
			if s.upd {
				upd++
				if int(s.key)%2 != w {
					t.Fatalf("worker %d updates key %d, not its own", w, s.key)
				}
			}
		}
		if share := float64(upd) / cycleLen; share < 0.48 || share > 0.52 {
			t.Errorf("worker %d: update share %.3f, want ~0.50", w, share)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// A host stall lands in one segment and must not move the tail; a
// systematic tail is in every segment and must.
func TestSummarizeSegments(t *testing.T) {
	const per = nSegments * minSegmentSamples
	flat := func() []uint32 {
		s := make([]uint32, per)
		for i := range s {
			s[i] = 100
		}
		return s
	}
	stalled := flat()
	for i := 0; i < minSegmentSamples; i++ { // all of segment 3: a 10 % stall
		stalled[3*minSegmentSamples+i] = 1e6
	}
	if l := summarize([][]uint32{stalled}); l.p99 != 100 || l.p90 != 100 || l.p50 != 100 || l.n != per {
		t.Errorf("one stalled segment moved the summary: %+v", l)
	}
	tailed := flat()
	for i := 0; i < per; i += 50 { // 2 % slow ops everywhere
		tailed[i] = 5000
	}
	if l := summarize([][]uint32{tailed}); l.p99 != 5000 || l.p90 != 100 {
		t.Errorf("systematic 2%% tail: p90 %v p99 %v, want 100 and 5000", l.p90, l.p99)
	}
	// Two workers: segment j is the union of both workers' j-th parts.
	if l := summarize([][]uint32{flat(), stalled}); l.p99 != 100 || l.n != 2*per {
		t.Errorf("two workers: %+v", l)
	}
	// Too few samples for segments: percentiles over the whole run.
	few := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if l := summarize([][]uint32{few}); l.p50 != 5 || l.p99 != 10 {
		t.Errorf("short run: %+v", l)
	}
}

func TestLadderVerdict(t *testing.T) {
	good := func(rate float64) rung {
		return rung{offered: rate, achieved: rate, p99Us: 500, lateP50Us: 0.1}
	}
	slow, short, late, backlog, failed := good(8e4), good(8e4), good(8e4), good(8e4), good(8e4)
	slow.p99Us = latencyLimitUs + 1
	short.achieved = 0.96 * 8e4
	late.lateP50Us = 5.1
	backlog.backlogEnd = 801
	failed.failed = 1
	abandoned := good(8e4)
	abandoned.abandoned = true
	for name, r := range map[string]rung{"p99 over the limit": slow, "achieved < 0.97 offered": short,
		"generator late": late, "backlog at rung end": backlog, "a failed request": failed, "abandoned": abandoned} {
		if r.ok() {
			t.Errorf("rung with %s passed", name)
		}
		if got := maxRateOK([]rung{good(2e4), good(4e4), r, good(16e4)}); got != 4e4 {
			t.Errorf("%s: max rate %v, want 40000 (the ladder stops at the first failure)", name, got)
		}
	}
	if late.valid() || !slow.valid() {
		t.Error("valid() must depend on generator lateness alone")
	}
	if got := maxRateOK([]rung{good(2e4), good(4e4)}); got != 4e4 {
		t.Errorf("all passing: %v, want 40000", got)
	}
	if got := maxRateOK([]rung{slow}); got != 0 {
		t.Errorf("first rung failing: %v, want 0", got)
	}
}

// The open-loop pacer against a no-op sink: if it cannot keep its own
// schedule within 5 µs at the reference rate, no latency it reports
// means anything. Other test binaries share the CPUs, so one clean
// attempt in five is enough; a sleeping or yielding pacer is late by
// hundreds of microseconds on every attempt.
func TestPacerKeepsSchedule(t *testing.T) {
	gaps := genArrivals(1, cycleLen)
	const dur = 100 * time.Millisecond
	best := 1e9
	for attempt := 0; attempt < 5 && best >= 5; attempt++ {
		n := planRung(gaps, 0, refRate, dur)
		p := &pacer{gaps: gaps, rate: refRate}
		var prev int64
		err := p.run(time.Now(), n,
			func(i int, due int64) error {
				if due < prev {
					t.Fatalf("arrival %d due at %d, before its predecessor at %d", i, due, prev)
				}
				prev = due
				return nil
			},
			func() error { return nil },
			func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		if p.sent != n || len(p.late) != n {
			t.Fatalf("pacer sent %d of %d arrivals, %d lateness samples", p.sent, n, len(p.late))
		}
		if want := refRate * dur.Seconds(); float64(n) < 0.9*want || float64(n) > 1.1*want {
			t.Fatalf("planned %d arrivals in %v at %v rps, want ~%.0f", n, dur, refRate, want)
		}
		p50, _ := p.lateness()
		best = min(best, p50)
	}
	if best >= 5 {
		t.Errorf("pacer lateness p50 %.1f µs on its best attempt, want < 5", best)
	}
}

// The bench's raw client and server.Client must get identical answers
// to the same requests, so that a protocol change breaks the benchmark
// loudly instead of skewing it. Update ids number the server's updates,
// so each client talks to its own, identically built server.
func TestProtocolConformance(t *testing.T) {
	wl, err := findWorkload("svc-update-persist")
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		ret, id uint64
		status  byte
	}
	steps := genKeyed(3, 0, 1, 300, keySpace, 50)
	kinds := []byte{kindUpdatePersist, kindUpdateLinearize}
	ask := func(call func(i int, kind byte, code uint64, args ...uint64) (answer, error)) []answer {
		var out []answer
		for i, s := range steps {
			var a answer
			var err error
			if s.upd {
				a, err = call(i, kinds[i%2], objects.OMapPut, uint64(s.key), valueOf(uint64(i+1), 0))
			} else {
				a, err = call(i, kindRead, objects.OMapGet, uint64(s.key))
			}
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out = append(out, a)
		}
		return out
	}

	e1, err := setupSvc(wl, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.close()
	raw := ask(func(i int, kind byte, code uint64, args ...uint64) (answer, error) {
		r, err := e1.conns[0].wc.call(uint32(i), kind, code, args...)
		if err == nil && r.tag != uint32(i) {
			t.Fatalf("request %d answered with tag %d", i, r.tag)
		}
		return answer{r.ret, r.id, r.status}, err
	})

	e2, err := setupSvc(wl, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.close()
	cl, err := server.Dial("tcp", e2.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := ask(func(_ int, kind byte, code uint64, args ...uint64) (answer, error) {
		r, err := cl.Call(kind, code, args...)
		return answer{r.Ret, r.ID, 0}, err
	})

	if !reflect.DeepEqual(raw, ref) {
		for i := range raw {
			if raw[i] != ref[i] {
				t.Fatalf("request %d (%+v): raw client got %+v, server.Client got %+v", i, steps[i], raw[i], ref[i])
			}
		}
	}
	updates := 0
	for i, s := range steps {
		if s.upd {
			updates++
			if raw[i].id == 0 {
				t.Fatalf("update %d carries no id", i)
			}
		} else if raw[i].id != 0 {
			t.Fatalf("read %d carries id %#x", i, raw[i].id)
		}
	}
	if updates == 0 {
		t.Fatal("no updates in the conformance stream")
	}
}

// BENCHMARK.json is generated from the registry (go run ./bench
// -manifest) and must meet the contract's limits.
func TestManifest(t *testing.T) {
	m := buildManifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifestFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, onDisk) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	for _, wl := range m.Workloads {
		use(wl.Name)
		if len(wl.Why) == 0 || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	setup := false
	for _, d := range append(slices.Clone(m.EndToEnd), m.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric with unit s, better lower")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}
