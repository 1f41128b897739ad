// Command onllview inspects a saved pool image (produced by
// Pool.SaveFile / cmd/onllcrash): it dumps the root table, walks every
// per-process persistent log, decodes its records — operation batches,
// compaction snapshots and delta-chain records (resolving each chain
// back to its base) — and previews what recovery would reconstruct,
// without modifying anything.
//
// Usage:
//
//	onllview -file pool.img [-records 10] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
)

var (
	fileFlag    = flag.String("file", "pool.img", "pool image path")
	recordsFlag = flag.Int("records", 10, "records to print per log (0 = all)")
	verboseFlag = flag.Bool("v", false, "print every op of every record")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	pool, err := pmem.LoadFile(*fileFlag, nil)
	if err != nil {
		return err
	}
	fmt.Printf("pool image %s: %d bytes, %d crash(es) survived\n",
		*fileFlag, pool.Size(), pool.Crashes())

	fmt.Println("\nroot table (non-zero slots):")
	for i := 0; i < 64; i++ {
		if v := pool.Root(i); v != 0 {
			fmt.Printf("  root[%2d] = %#x\n", i, v)
		}
	}

	nprocs := int(pool.Root(1))
	if pool.Root(0) != 0x4f4e4c4c0001 || nprocs < 1 || nprocs > core.MaxProcs {
		return fmt.Errorf("no ONLL root found (magic %#x, nprocs %d)", pool.Root(0), nprocs)
	}
	fmt.Printf("\nONLL instance: %d processes\n", nprocs)

	// Image-derived compaction counters, in core.CompactionStats shape:
	// the live instance's counters are volatile (they die with the
	// crash), but the surviving chain records say what compaction wrote.
	var cstats core.CompactionStats
	totalOps, totalSnaps := 0, 0
	for pid := 0; pid < nprocs; pid++ {
		base := pmem.Addr(pool.Root(8 + pid))
		l, err := plog.Open(pool, pid, base)
		if err != nil {
			return fmt.Errorf("log p%d at %#x: %w", pid, uint64(base), err)
		}
		recs := l.Records()
		fmt.Printf("\nlog p%-2d @ %#x: capacity=%d records, maxOps=%d, headSeq=%d, nextSeq=%d, live=%d\n",
			pid, uint64(base), l.Capacity(), l.MaxOps(), l.HeadSeq(), l.NextSeq(), len(recs))
		if n := l.ChainLen(); n > 0 {
			fmt.Printf("  delta chain: %d record(s), covers execIdx=%d, delta words=%d\n",
				n, l.ChainHead(), l.ChainDeltaWords())
		}
		for _, rec := range recs {
			switch {
			case rec.Kind == plog.KindOps:
				totalOps += len(rec.Ops)
			case rec.Kind == plog.KindDelta && rec.ChainBase():
				cstats.Bases++
				cstats.SnapshotWords += uint64(len(rec.DeltaPayload()))
			case rec.Kind == plog.KindDelta:
				cstats.Deltas++
				cstats.SnapshotWords += uint64(len(rec.DeltaPayload()))
			default:
				totalSnaps++
			}
		}
		shown := 0
		for _, rec := range recs {
			if *recordsFlag > 0 && shown >= *recordsFlag {
				fmt.Printf("  ... %d more records\n", len(recs)-shown)
				break
			}
			shown++
			switch rec.Kind {
			case plog.KindOps:
				fmt.Printf("  seq=%-5d ops execIdx=%-6d %d op(s)", rec.Seq, rec.ExecIdx, len(rec.Ops))
				if *verboseFlag {
					fmt.Println()
					for k, op := range rec.Ops {
						fmt.Printf("      [idx=%d] %s\n", rec.ExecIdx-uint64(k), opString(op))
					}
				} else {
					fmt.Printf("  first=%s\n", opString(rec.Ops[0]))
				}
			case plog.KindSnapshot:
				fmt.Printf("  seq=%-5d snapshot execIdx=%-6d %d state word(s)\n",
					rec.Seq, rec.ExecIdx, len(rec.State))
			case plog.KindDelta:
				role := "delta"
				if rec.ChainBase() {
					role = "chain-base"
				}
				status := "resolves"
				if elems, err := l.ResolveChain(rec); err != nil {
					status = fmt.Sprintf("UNRESOLVABLE: %v", err)
				} else {
					status = fmt.Sprintf("resolves: %d element(s) to base", len(elems))
				}
				fmt.Printf("  seq=%-5d %-10s execIdx=%-6d %d payload word(s)  %s\n",
					rec.Seq, role, rec.ExecIdx, len(rec.DeltaPayload()), status)
			}
		}
	}

	fmt.Printf("\ntotals: %d logged op entries (helping included), %d snapshots\n", totalOps, totalSnaps)
	if cstats.Bases+cstats.Deltas > 0 {
		fmt.Printf("compaction (from surviving chain records): %d base(s), %d delta(s), %d payload word(s) — %.1f words/cut\n",
			cstats.Bases, cstats.Deltas, cstats.SnapshotWords,
			float64(cstats.SnapshotWords)/float64(cstats.Bases+cstats.Deltas))
	}
	fmt.Println("\nrecovery preview (indices recovery would reconstruct):")
	preview(pool, nprocs)
	return nil
}

func opString(op spec.Op) string {
	pid, seq := spec.SplitID(op.ID)
	return fmt.Sprintf("op{code=%d args=[%d %d %d] by=p%d#%d}",
		op.Code, op.Args[0], op.Args[1], op.Args[2], pid, seq)
}

func preview(pool *pmem.Pool, nprocs int) {
	byIdx := map[uint64]spec.Op{}
	var baseIdx uint64
	for pid := 0; pid < nprocs; pid++ {
		l, err := plog.Open(pool, pid, pmem.Addr(pool.Root(8+pid)))
		if err != nil {
			continue
		}
		for _, rec := range l.Records() {
			switch rec.Kind {
			case plog.KindSnapshot:
				if rec.ExecIdx > baseIdx {
					baseIdx = rec.ExecIdx
				}
			case plog.KindDelta:
				// A chain head covers up to its execIdx — but only if
				// the whole chain resolves back to its base; recovery
				// would refuse (or salvage past) a broken one.
				if _, err := l.ResolveChain(rec); err == nil && rec.ExecIdx > baseIdx {
					baseIdx = rec.ExecIdx
				}
			case plog.KindOps:
				for k, op := range rec.Ops {
					byIdx[rec.ExecIdx-uint64(k)] = op
				}
			}
		}
	}
	if baseIdx > 0 {
		fmt.Printf("  base snapshot at index %d\n", baseIdx)
	}
	i := baseIdx + 1
	for {
		if _, ok := byIdx[i]; !ok {
			break
		}
		i++
	}
	fmt.Printf("  contiguous recoverable prefix: indices %d..%d (%d operations)\n",
		baseIdx+1, i-1, i-1-baseIdx)
	if orphans := countOrphans(byIdx, baseIdx, i); orphans > 0 {
		fmt.Printf("  %d logged op(s) beyond the first gap (unreachable; crash artifacts)\n", orphans)
	}
}

func countOrphans(byIdx map[uint64]spec.Op, baseIdx, firstGap uint64) int {
	n := 0
	for idx := range byIdx {
		if idx > baseIdx && idx >= firstGap {
			n++
		}
	}
	return n
}
