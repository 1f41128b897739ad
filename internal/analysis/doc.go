package analysis

// Annotation conventions
//
// The analyzers are driven by //onll: markers in ordinary comments.
// Two positions carry meaning:
//
//   - a marker in a function's (or type's) doc comment applies to the
//     whole declaration;
//   - a marker written as a trailing comment applies to that source
//     line only — the statement-level escape form.
//
// Declaration markers:
//
//	//onll:hotpath
//	    The function is on the update/read/Stage fast path: the hotpath
//	    analyzer forbids allocations (make, new, slice/map literals,
//	    closures), channel operations, goroutine launches, clock reads
//	    (time.Now/Since) and mutex acquisition inside it, and keeps the
//	    barrier ledger: every sync/atomic write in it (Store, Swap,
//	    CompareAndSwap, Add, And, Or; method or function form) names
//	    its partner. Escapes below.
//
//	//onll:readpath
//	    The function is a read-side entry point for the fencepath
//	    analyzer, in addition to the built-in entry set (exported
//	    methods named Read, TryRead, ReadEach, ReadEachInto, ReadSum,
//	    Scrub). Nothing reachable from it may issue a persistent-memory
//	    write or fence — the paper's 0-pfence read invariant.
//
//	//onll:allowfence(reason)
//	    The function deliberately fences (a baseline that persists on
//	    reads, the pressure valve): fencepath stops propagating through
//	    it and does not report it. The marker is itself reported when
//	    the function cannot actually reach a fence — stale escapes rot
//	    the audit, so they fail the build.
//
//	//onll:linepadded
//	    The struct's fields are grouped into cache lines by blank pad
//	    arrays ("_ [N]uint64"): the linepad analyzer recomputes the
//	    layout with the target sizes and reports any padded group that
//	    does not start and end on a 64-byte line boundary or whose live
//	    fields spill over one line (pmem's per-pid pending-line
//	    table, one line per process).
//
// Line escapes (trailing comments; the reason is mandatory and shows
// up in reviews, like a nolint directive that has to justify itself):
//
//	//onll:clockok(reason)   hotpath: this clock read is deliberate
//	                         (gated timing capture)
//	//onll:lockok(reason)    hotpath: this lock is allowlisted (striped
//	                         pool shard, bounded critical section)
//	//onll:allocok(reason)   hotpath: this allocation is deliberate
//	                         (ablation-only branch, cold error path)
//	//onll:chanok(reason)    hotpath: this channel operation or
//	                         goroutine launch is structural (the
//	                         batcher's ack delivery channels)
//	//onll:barrier(partner)  hotpath: this atomic write is kept, and
//	                         partner names the load or check it orders
//	                         against (the busy CAS against a second
//	                         taker's CAS, a floor store against
//	                         walkLimit's scan); an empty partner is
//	                         reported like a missing one
//	//onll:plainok(reason)   atomicmix: this plain access of an
//	                         atomically-written location is safe
//	                         (single-goroutine phase, under a lock that
//	                         orders it with every atomic writer)
//
// Run the suite with
//
//	go run ./cmd/onllvet ./...
//
// which also runs the stock `go vet` passes first; CI's staticanalysis
// job gates merges on a clean run (DESIGN.md §3.11 maps each analyzer
// to the paper invariant or past hand-audit it replaces).
