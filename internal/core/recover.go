package core

// Recovery (paper Listing 5 + Section 8 snapshots).

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Report describes what recovery found: which operations were linearized
// before the crash (detectable execution) and where the rebuilt trace
// starts and ends.
type Report struct {
	// Linearized maps operation id -> execution index for every update
	// linearized before the crash and visible after it.
	Linearized map[uint64]uint64
	// Ordered is the recovered update sequence (indices BaseIdx+1..
	// LastIdx), oldest first.
	Ordered []spec.Op
	// BaseIdx is the snapshot index recovery restarted from (0 = none).
	BaseIdx uint64
	// BaseState is the decoded snapshot state at BaseIdx (nil if none).
	BaseState []uint64
	// CoveredSeq maps process id -> highest op sequence number folded
	// into the recovered snapshot: every op of that process with a
	// sequence number at or below it was linearized before the crash,
	// even though its individual record was compacted away.
	CoveredSeq map[int]uint64
	// LastIdx is the execution index of the newest recovered operation.
	LastIdx uint64
	// PerProcessSeq records the highest per-process op sequence number
	// seen, so replacement processes do not reuse ids.
	PerProcessSeq map[int]uint64
	// Salvage details what recovery found, in either mode: per-process
	// salvage counters, the health classification, and the full loss
	// evidence (health.go).
	Salvage *SalvageReport
}

// WasLinearized implements detectable execution: after recovery it
// reports whether the update with the given id took effect before the
// crash, and at which execution index. Operations absorbed into a
// compaction snapshot are reported as linearized with index 0 (their
// individual position was compacted away but is at most BaseIdx).
func (r *Report) WasLinearized(id uint64) (idx uint64, ok bool) {
	if idx, ok = r.Linearized[id]; ok {
		return idx, true
	}
	if pid, seq := spec.SplitID(id); pid >= 0 && seq > 0 && seq <= r.CoveredSeq[pid] {
		return 0, true
	}
	return 0, false
}

// Recover rebuilds the object from the durable contents of pool after a
// crash, per Listing 5: it restores the newest valid compaction record
// (if any), then stitches together the operation sequence from all
// per-process logs, inserting each found operation into a fresh
// execution trace with its available flag set. The returned instance is
// ready for new operations; its processes are the crash survivors'
// replacements.
//
// Recovery is one algorithm, and it reads each log once
// (plog.OpenWalk): the longest valid prefix, plus — when an invalid
// record ends the prefix — every checksummed record stranded beyond it
// (orphans; helping usually re-persisted the missing operations in
// another log, bridging the gap). Whatever fails validation becomes
// typed evidence, and the instance is classified Healthy, Degraded or
// Quarantined (health.go); Report.Salvage details what was found.
// Config.Salvage decides two things only. A salvaging recovery also reads
// past a log's stale end (plog.Log.Resume), where a destroyed sequence
// word would otherwise hide orphans. And where the evidence shows lost
// operations, a salvaging recovery returns the instance quarantined,
// still carrying the best-effort prefix for inspection and Recreate,
// while a strict one fails with the primary evidence.
func Recover(pool *pmem.Pool, sp spec.Spec, cfg Config) (*Instance, *Report, error) {
	rb := cfg.RootBase
	if rb < 0 || rb+rootLogBase >= pmem.RootSlots {
		return nil, nil, fmt.Errorf("core: RootBase %d out of range", rb)
	}
	if pool.Root(rb+rootMagicSlot) != rootMagic {
		return nil, nil, errors.New("core: pool has no ONLL root (not initialized?)")
	}
	nprocs := int(pool.Root(rb + rootNProcsSlot))
	if nprocs < 1 || nprocs > MaxProcs || rb+rootLogBase+nprocs > pmem.RootSlots {
		return nil, nil, fmt.Errorf("core: implausible recovered NProcs %d", nprocs)
	}
	if cfg.NProcs == 0 {
		cfg.NProcs = nprocs
	}
	if cfg.NProcs != nprocs {
		return nil, nil, fmt.Errorf("core: configured NProcs %d != recovered %d", cfg.NProcs, nprocs)
	}
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}

	in := &Instance{cfg: cfg, sp: sp, pool: pool, gate: cfg.Gate}
	if err := claimRoots(pool, &cfg); err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Linearized: map[uint64]uint64{}, PerProcessSeq: map[int]uint64{},
		CoveredSeq: map[int]uint64{}, Salvage: &SalvageReport{PerPid: make([]PidSalvage, nprocs)},
	}
	var (
		records  []plog.Record
		cands    []baseCand // compaction records recovery may restart from
		evidence []error    // loss evidence: quarantines, or fails a strict recovery
		damaged  bool       // non-benign damage seen (degraded unless loss)
	)
	for pid := 0; pid < nprocs; pid++ {
		ps := &rep.Salvage.PerPid[pid]
		l, w, err := plog.OpenWalk(pool, pid, pmem.Addr(pool.Root(rb+rootLogBase+pid)))
		in.logs = append(in.logs, l)
		if errors.Is(err, plog.ErrLayout) {
			// A log of an older layout is not damage: neither mode can
			// read it, so neither quarantines it.
			return nil, nil, fmt.Errorf("core: log of p%d: %w", pid, err)
		}
		if err != nil {
			// The whole log is unreadable. Its process's un-helped
			// operations are gone: loss evidence.
			ps.OpenErr = err
			evidence = append(evidence, fmt.Errorf("%w: log of p%d: %w", ErrBadSlotHeader, pid, err))
			continue
		}
		if cfg.Salvage {
			l.Resume(w)
		}
		ps.BadSlots, ps.Orphans, ps.TailTorn = len(w.BadSeqs), len(w.Orphans), w.TailTorn()
		damaged = damaged || w.Damaged()
		for _, recs := range [][]plog.Record{w.Live, w.Orphans} {
			records = append(records, recs...)
			for _, r := range recs {
				if r.Kind != plog.KindOps {
					cands = append(cands, baseCand{pid: pid, log: l, rec: r})
				}
			}
		}
		// Truncation-coverage invariant: headSeq > 0 means compaction
		// truncated records, and compaction always leaves its covering
		// record — a snapshot, or a delta-chain record whose chain must
		// still resolve — as the oldest live record (the covering
		// append is fenced before the truncate is, so every crash-legal
		// image satisfies this). A violated invariant means the
		// coverage, and everything it covered, is gone: silent loss.
		if l.HeadSeq() > 0 {
			covered := false
			if len(w.Live) > 0 {
				switch w.Live[0].Kind {
				case plog.KindSnapshot:
					covered = true
				case plog.KindDelta:
					_, rerr := l.ResolveChain(w.Live[0])
					covered = rerr == nil
				}
			}
			if !covered {
				evidence = append(evidence, fmt.Errorf(
					"%w: p%d truncated through seq %d but the covering snapshot is unreadable",
					ErrSnapshotCorrupt, pid, l.HeadSeq()))
			}
		}
	}

	// Newest valid compaction record wins: a plain full snapshot, or
	// the head of a delta chain folded back into a full state
	// (foldBaseCandidate, deltacompact.go). Candidates are tried
	// newest-first; one that does not fold — an unresolvable chain, an
	// undecodable payload, a corrupt diff — is unreconstructible
	// coverage: loss evidence, and the next candidate is tried.
	sort.Slice(cands, func(i, j int) bool { return cands[i].rec.ExecIdx > cands[j].rec.ExecIdx })
	var (
		baseSeqs []uint64
		base     spec.State // the restored base, handed to the first view
	)
	for _, c := range cands {
		seqs, words, st, err := foldBaseCandidate(sp, c.log, c.rec)
		if err != nil {
			evidence = append(evidence, fmt.Errorf("%w: p%d at index %d: %w", ErrSnapshotCorrupt, c.pid, c.rec.ExecIdx, err))
			continue
		}
		rep.BaseIdx, rep.BaseState, baseSeqs, base = c.rec.ExecIdx, words, seqs, st
		break
	}
	for pid, seq := range baseSeqs {
		if seq > 0 {
			rep.CoveredSeq[pid] = seq
			if seq > rep.PerProcessSeq[pid] {
				rep.PerProcessSeq[pid] = seq
			}
		}
	}

	// Union of all persisted operations, by execution index. Helping
	// means the same (index, op) pair may appear in several logs; the
	// pairs agree by construction (cross-checked here).
	byIdx := map[uint64]spec.Op{}
	for _, rec := range records {
		if rec.Kind != plog.KindOps {
			continue
		}
		for k, op := range rec.Ops {
			idx := rec.ExecIdx - uint64(k)
			if idx <= rep.BaseIdx {
				continue
			}
			if prev, dup := byIdx[idx]; dup && prev != op {
				// Two checksummed records disagree about an index:
				// impossible in a crash-only execution, so one of them
				// is silent media damage we cannot tell apart.
				evidence = append(evidence, fmt.Errorf("%w: logs disagree at index %d: %v vs %v", ErrTornRecord, idx, prev, op))
				continue
			}
			byIdx[idx] = op
		}
	}

	// Listing 5: walk indices upward from the base; the first gap ends
	// the recoverable prefix (Proposition 5.10 shows no gap can precede
	// a persisted operation).
	var ordered []spec.Op
	i := rep.BaseIdx + 1
	for {
		op, ok := byIdx[i]
		if !ok {
			break
		}
		ordered = append(ordered, op)
		i++
	}
	rep.LastIdx = rep.BaseIdx + uint64(len(ordered))
	rep.Ordered = ordered

	if len(byIdx) > len(ordered) {
		// Persisted operations stranded beyond the first gap. Proposition
		// 5.10 rules this out for crash-only executions (helping persists
		// the whole fuzzy window below every operation), so the gap is a
		// destroyed record, and the stranded operations were linearized
		// but are unrecoverable in order: loss evidence.
		evidence = append(evidence, fmt.Errorf(
			"%w: %d persisted operations stranded beyond index %d",
			ErrTornRecord, len(byIdx)-len(ordered), rep.LastIdx))
	}
	if len(evidence) > 0 && !cfg.Salvage {
		return nil, nil, primaryEvidence(evidence)
	}

	// Rebuild the trace: base (or INITIALIZE sentinel), then one
	// available node per recovered operation.
	var sentinel *trace.Node
	if rep.BaseIdx > 0 {
		sentinel = trace.NewBase(rep.BaseIdx, rep.BaseState, baseSeqs)
	}
	in.tr = newTrace(&cfg, sentinel)
	recPID := 0 // recovery runs single-threaded; pid 0 stands in
	for k, op := range ordered {
		n := trace.NewNode(op)
		in.tr.Insert(recPID, n)
		in.tr.SetAvailable(recPID, n)
		idx := rep.BaseIdx + 1 + uint64(k)
		if n.Idx() != idx {
			return nil, nil, fmt.Errorf("core: recovery trace index skew: %d != %d", n.Idx(), idx)
		}
		rep.Linearized[op.ID] = idx
		if pid, seq := spec.SplitID(op.ID); pid >= 0 && seq > rep.PerProcessSeq[pid] {
			rep.PerProcessSeq[pid] = seq
		}
	}

	in.makeHandles(rep.PerProcessSeq, base)
	in.classifySalvage(rep, evidence, damaged)
	return in, rep, nil
}
