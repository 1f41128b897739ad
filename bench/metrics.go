package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/pmem"
)

// metric is one named number the benchmark reports. End-to-end metrics
// are what a user of the library or the service sees and carry the
// bound by which a later change may worsen them; per-layer metrics say
// where the cost sits and carry none.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed relative worsening
	// moves says which end-to-end metric, on which workload, a change
	// to this layer metric should move (per-layer only; README table).
	moves string
}

// endToEnd is reported by every workload on every untraced run.
var endToEnd = []metric{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is reported by every traced run; a metric that does not
// apply to the workload reads 0.
var perLayer = []metric{
	// End-to-end quantities that are exactly 0 on some workload (or a
	// discrete rung), so the contract cannot gate them by ratio; the
	// run's correctness gate enforces the exact ones instead.
	{name: "fail_share", unit: "ratio", better: "lower", moves: "must be 0 on every workload (gated by correct/failed)"},
	{name: "pfences_per_update", unit: "count", better: "lower", moves: "the paper's bound: 1 + cuts on lib-*, 1/avg_batch on svc-*; 0 on lib-read, svc-read"},
	{name: "pfences_per_read", unit: "count", better: "lower", moves: "must be exactly 0 (gated by correct/failed)"},
	{name: "nvm_write_bytes_per_update", unit: "B", better: "lower", moves: "device cost that transfers to real NVM; ops_per_s on lib-update, lib-churn"},
	{name: "nvm_alloc_mb", unit: "MB", better: "lower", moves: "space and leaks; lib-churn"},
	{name: "max_rate_ok_rps", unit: "1/s", better: "higher", moves: "svc-open-mixed ladder verdict (discrete, so not ratio-gated)"},
	{name: "p90_us", unit: "us", better: "lower", moves: "the tail every workload reports: segment-median p90, op-share weighted (ten seeds spread up to 43 % on svc-open-mixed, so not gated)"},
	{name: "read_p50_us", unit: "us", better: "lower", moves: "p50_us on read and mixed workloads"},
	{name: "read_p99_us", unit: "us", better: "lower", moves: "the far tail on read and mixed workloads (not steady enough on 2 CPUs to gate)"},
	{name: "update_p50_us", unit: "us", better: "lower", moves: "p50_us on update and mixed workloads"},
	{name: "update_p99_us", unit: "us", better: "lower", moves: "the far tail on update and mixed workloads (not steady enough on 2 CPUs to gate)"},

	{name: "pmem.storeline_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-churn; none on lib-read, svc-read"},
	{name: "pmem.flush_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-churn"},
	{name: "pmem.fence_ns_k1", unit: "ns", better: "lower", moves: "ops_per_s on lib-update (one line per fence)"},
	{name: "pmem.fence_ns_k8", unit: "ns", better: "lower", moves: "p50_us on svc-update-persist (batch records)"},
	{name: "pmem.fence_ns_k64", unit: "ns", better: "lower", moves: "ops_per_s on lib-churn (snapshot bodies)"},
	{name: "pmem.stores_per_update", unit: "count", better: "lower", moves: "ops_per_s on lib-update, lib-churn"},
	{name: "pmem.flushes_per_update", unit: "count", better: "lower", moves: "ops_per_s on lib-update, lib-churn"},
	{name: "pmem.lines_per_fence", unit: "count", better: "higher", moves: "nvm_write_bytes_per_update; batching depth on svc-*"},
	{name: "pmem.alloc_bytes_per_update", unit: "B", better: "lower", moves: "nvm_alloc_mb on lib-churn"},

	{name: "plog.append_inline_ns", unit: "ns", better: "lower", moves: "ops_per_s, p50_us on lib-update"},
	{name: "plog.append_spill_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-mixed under deep fuzzy windows"},
	{name: "plog.append_batch16_ns", unit: "ns", better: "lower", moves: "p50_us on svc-update-persist"},
	{name: "plog.append_batch64_ns", unit: "ns", better: "lower", moves: "ops_per_s on svc-update-persist, svc-open-mixed"},
	{name: "plog.append_delta_ns_per_kword", unit: "ns", better: "lower", moves: "ops_per_s, p90_us on lib-churn"},
	{name: "plog.append_snapshot_ns_per_kword", unit: "ns", better: "lower", moves: "p90_us on lib-churn (base cuts)"},
	{name: "plog.truncate_ns", unit: "ns", better: "lower", moves: "p90_us on lib-update, lib-churn (every cut truncates)"},
	{name: "plog.spills_per_kupdate", unit: "count", better: "lower", moves: "ops_per_s on lib-mixed, lib-update"},
	{name: "plog.ops_per_record", unit: "count", better: "lower", moves: "nvm_write_bytes_per_update (mean fuzzy-window depth)"},

	{name: "trace.insert_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-mixed"},
	{name: "trace.set_available_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-mixed"},
	{name: "trace.fuzzy_ops_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update"},
	{name: "trace.latest_available_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-mixed (walking reads)"},
	{name: "trace.epoch_ns", unit: "ns", better: "lower", moves: "ops_per_s, p50_us on lib-read"},
	{name: "trace.collect_back_ns_per_node", unit: "ns", better: "lower", moves: "ops_per_s on lib-mixed (suffix walks)"},

	{name: "objects.apply_put_ns_1k", unit: "ns", better: "lower", moves: "ops_per_s on lib-update, lib-mixed"},
	{name: "objects.apply_put_ns_64k", unit: "ns", better: "lower", moves: "ops_per_s on lib-churn"},
	{name: "objects.read_get_ns_1k", unit: "ns", better: "lower", moves: "ops_per_s, p50_us on lib-read, svc-read"},
	{name: "objects.read_get_ns_64k", unit: "ns", better: "lower", moves: "ops_per_s on lib-churn"},
	{name: "objects.copy_ns_per_kword", unit: "ns", better: "lower", moves: "ops_per_s on lib-churn, lib-mixed (adoption, publication)"},
	{name: "objects.snapshot_ns_per_kword", unit: "ns", better: "lower", moves: "p90_us on lib-churn (base cuts)"},
	{name: "objects.restore_ns_per_kword", unit: "ns", better: "lower", moves: "recover_s on every workload"},

	{name: "core.update_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-update; base of ledger.lib_update_unexplained_pct"},
	{name: "core.read_ns", unit: "ns", better: "lower", moves: "ops_per_s on lib-read; base of ledger.lib_read_unexplained_pct"},
	{name: "core.update_p50_ns", unit: "ns", better: "lower", moves: "p50_us on lib-update, lib-mixed, lib-churn"},
	{name: "core.update_p99_ns", unit: "ns", better: "lower", moves: "p90_us on lib-update, lib-mixed, lib-churn"},
	{name: "core.read_p50_ns", unit: "ns", better: "lower", moves: "p50_us on lib-read, lib-mixed"},
	{name: "core.read_p99_ns", unit: "ns", better: "lower", moves: "p90_us on lib-read, lib-mixed"},
	{name: "core.update_stall_p50_us", unit: "us", better: "lower", moves: "p90_us on lib-update, lib-churn (cuts, which a median hides)"},
	{name: "core.update_stalls_per_kupdate", unit: "count", better: "lower", moves: "p90_us on lib-update, lib-churn"},
	{name: "core.read_epoch_hit_share", unit: "ratio", better: "higher", moves: "ops_per_s on lib-read (>0.99) against lib-mixed"},
	{name: "core.read_slot_share", unit: "ratio", better: "higher", moves: "ops_per_s on lib-mixed"},
	{name: "core.read_walk_share", unit: "ratio", better: "lower", moves: "ops_per_s on lib-mixed"},
	{name: "core.adoptions_per_kread", unit: "count", better: "lower", moves: "ops_per_s on lib-mixed, lib-churn"},
	{name: "core.publishes_per_kupdate", unit: "count", better: "lower", moves: "ops_per_s on lib-mixed (updates pay publication)"},
	{name: "core.cuts_per_kupdate", unit: "count", better: "lower", moves: "ops_per_s, nvm_alloc_mb, recover_s on lib-churn"},
	{name: "core.words_per_cut", unit: "count", better: "lower", moves: "nvm_write_bytes_per_update on lib-churn"},
	{name: "core.cut_words_vs_full", unit: "ratio", better: "lower", moves: "nvm_write_bytes_per_update on lib-churn"},
	{name: "core.collapses_per_kcut", unit: "count", better: "lower", moves: "p90_us, nvm_alloc_mb on lib-churn"},
	{name: "core.valve_fires", unit: "count", better: "lower", moves: "p90_us on lib-update, lib-mixed"},
	{name: "core.ring_grows", unit: "count", better: "lower", moves: "nvm_alloc_mb"},
	{name: "core.stage_ns", unit: "ns", better: "lower", moves: "ops_per_s on svc-update-persist, svc-open-mixed"},
	{name: "core.flush_ns_b1", unit: "ns", better: "lower", moves: "p50_us on svc-update-persist at low load"},
	{name: "core.flush_ns_b16", unit: "ns", better: "lower", moves: "p50_us, ops_per_s on svc-update-persist"},
	{name: "core.flush_ns_b64", unit: "ns", better: "lower", moves: "ops_per_s on svc-update-persist, svc-open-mixed"},
	{name: "core.allocs_per_op", unit: "count", better: "lower", moves: "ops_per_s, p90_us on lib-* (0 on lib-read)"},
	{name: "core.recover_ns_per_record", unit: "ns", better: "lower", moves: "recover_s on every workload"},
	{name: "core.trace_overhead_pct", unit: "%", better: "lower", moves: "what tracing costs lib-* (traced vs untraced ops_per_s)"},

	{name: "shard.update_route_ns", unit: "ns", better: "lower", moves: "probe only: no workload routes through shard yet"},
	{name: "shard.read_route_ns", unit: "ns", better: "lower", moves: "probe only: no workload routes through shard yet"},

	{name: "server.avg_batch", unit: "count", better: "higher", moves: "pfences_per_update, ops_per_s on svc-update-persist; absent on svc-read"},
	{name: "server.flushes_per_s", unit: "1/s", better: "lower", moves: "ops_per_s on svc-update-persist"},
	{name: "server.pfences_per_update", unit: "count", better: "lower", moves: "ops_per_s on svc-update-persist, svc-open-mixed"},
	{name: "server.queue_p50_us", unit: "us", better: "lower", moves: "p50_us on svc-update-persist (Stage - Enqueue)"},
	{name: "server.batch_wait_p50_us", unit: "us", better: "lower", moves: "p50_us on svc-update-persist (Persist - Stage; dominates today)"},
	{name: "server.batch_wait_p99_us", unit: "us", better: "lower", moves: "p90_us on svc-update-persist"},
	{name: "server.respond_p50_us", unit: "us", better: "lower", moves: "p50_us on svc-update-persist (Respond - Persist)"},
	{name: "server.rtt_depth1_read_p50_us", unit: "us", better: "lower", moves: "p50_us on svc-read, svc-open-mixed"},
	{name: "server.rtt_depth1_update_p50_us", unit: "us", better: "lower", moves: "p50_us on svc-update-persist"},
	{name: "server.client_overhead_us", unit: "us", better: "lower", moves: "none: server.Client against the bench's raw client"},
	{name: "server.trace_overhead_pct", unit: "%", better: "lower", moves: "what tracing costs svc-* (traced vs untraced ops_per_s)"},

	{name: "gen.late_p50_us", unit: "us", better: "lower", moves: "validity of svc-open-mixed: a rung with > 5 is void"},
	{name: "gen.late_p99_us", unit: "us", better: "lower", moves: "validity of svc-open-mixed"},
	{name: "gen.send_ns", unit: "ns", better: "lower", moves: "generator cost per request, svc-open-mixed"},
	{name: "gen.stream_hash", unit: "count", better: "lower", moves: "fingerprint of the generated inputs, not a cost"},

	{name: "ledger.lib_update_unexplained_pct", unit: "%", better: "lower", moves: "share of core.update_ns its layer probes do not explain"},
	{name: "ledger.lib_read_unexplained_pct", unit: "%", better: "lower", moves: "share of core.read_ns its layer probes do not explain"},
	{name: "ledger.svc_update_unexplained_pct", unit: "%", better: "lower", moves: "share of update_p50_us outside queue + batch_wait + respond"},
}

// result is what one run of one workload produced.
type result struct {
	attempted, failed uint64
	violations        []string
	m                 map[string]float64
}

func newResult() *result { return &result{m: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.m[name] = v }

// violate records why the run is not correct (the first few reasons).
func (r *result) violate(format string, args ...any) {
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.violations) == 0 }

// setLatency records the workload's p50_us / p90_us from the per-class
// summaries (in nanoseconds; reads, updates and any further classes):
// the op-share-weighted mean of the class values. On a one-class
// workload that is the class percentile; on a 50/50 mix the plain
// median would sit in the gap between two populations and swing with
// the mix, while the weighted form moves with either class. The read
// and update classes are also recorded on their own.
func (r *result) setLatency(rd, up latency, more ...latency) {
	if rd.n > 0 {
		r.set("read_p50_us", rd.p50/1e3)
		r.set("read_p99_us", rd.p99/1e3)
	}
	if up.n > 0 {
		r.set("update_p50_us", up.p50/1e3)
		r.set("update_p99_us", up.p99/1e3)
	}
	var n, p50, p90 float64
	for _, l := range append([]latency{rd, up}, more...) {
		n += float64(l.n)
		p50 += l.p50 * float64(l.n)
		p90 += l.p90 * float64(l.n)
	}
	if n > 0 {
		r.set("p50_us", p50/n/1e3)
		r.set("p90_us", p90/n/1e3)
	}
}

// setOpsPerRecord records the mean number of ops in the live log
// records: the fuzzy-window depth updates persisted, or behind the
// server the batch depth.
func (r *result) setOpsPerRecord(in *core.Instance) {
	var recs, ops int
	for pid := 0; pid < in.NProcs(); pid++ {
		for _, rec := range in.Log(pid).Records() {
			if len(rec.Ops) > 0 {
				recs++
				ops += len(rec.Ops)
			}
		}
	}
	if recs > 0 {
		r.set("plog.ops_per_record", float64(ops)/float64(recs))
	}
}

// setDeviceCosts records what the window's updates cost the simulated
// device and the compaction machinery, per update.
func (r *result) setDeviceCosts(c0, c1 counters, updates uint64) {
	if updates == 0 {
		return
	}
	u := float64(updates)
	pm := c1.pm
	fences := float64(pm.PersistentFences - c0.pm.PersistentFences)
	lines := float64(pm.LinesPersisted - c0.pm.LinesPersisted)
	r.set("pfences_per_update", fences/u)
	r.set("nvm_write_bytes_per_update", lines*pmem.LineSize/u)
	r.set("pmem.stores_per_update", float64(pm.Stores-c0.pm.Stores)/u)
	r.set("pmem.flushes_per_update", float64(pm.Flushes-c0.pm.Flushes)/u)
	if fences > 0 {
		r.set("pmem.lines_per_fence", lines/fences)
	}
	r.set("pmem.alloc_bytes_per_update", float64(c1.lines-c0.lines)*pmem.LineSize/u)
	r.set("nvm_alloc_mb", float64(c1.lines-c0.lines)*pmem.LineSize/1e6)
	r.set("plog.spills_per_kupdate", 1e3*float64(c1.pr.Spills-c0.pr.Spills)/u)
	r.set("core.valve_fires", float64(c1.pr.ValveFires-c0.pr.ValveFires))
	r.set("core.ring_grows", float64(c1.pr.RingGrows-c0.pr.RingGrows))
	cuts := float64(c1.cmp.Bases + c1.cmp.Deltas - c0.cmp.Bases - c0.cmp.Deltas)
	r.set("core.cuts_per_kupdate", 1e3*cuts/u)
	if cuts > 0 {
		words := float64(c1.cmp.SnapshotWords - c0.cmp.SnapshotWords)
		r.set("core.words_per_cut", words/cuts)
		if full := float64(c1.cmp.FullEquivWords - c0.cmp.FullEquivWords); full > 0 {
			r.set("core.cut_words_vs_full", words/full)
		}
		r.set("core.collapses_per_kcut", 1e3*float64(c1.cmp.Collapses-c0.cmp.Collapses)/cuts)
	}
}

// merge copies every metric of o that r does not have yet.
func (r *result) merge(o *result) {
	for k, v := range o.m {
		if _, ok := r.m[k]; !ok {
			r.m[k] = v
		}
	}
}

// print writes the named metrics, in registry order, one per line.
func (r *result) print(defs []metric) {
	for _, d := range defs {
		if v, ok := r.m[d.name]; ok {
			fmt.Printf("  %-36s %16.6g %s\n", d.name, v, d.unit)
		}
	}
}

// unknown lists metrics the run set that the registry does not name —
// a typo that would otherwise silently drop a number.
func (r *result) unknown() []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	var out []string
	for k := range r.m {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
