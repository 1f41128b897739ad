package core

import (
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// listing5 is the base the reference recovery restarts from (covered
// seqs per pid, delta links folded) and the ordered suffix above it.
type listing5 struct {
	ordered         []spec.Op
	baseIdx         uint64
	baseState, seqs []uint64
	deltas          int
}

// recoverListing5 is a literal transcription of the paper's Listing 5
// recovery loop, kept alongside the production recovery (which indexes
// the logs once instead of rescanning them per iteration) as an
// executable specification:
//
//	executionTrace.insert(queueNode(INITIALIZE)).setAvailable();
//	for(i=1; true; i++){
//	    Find log entry E with lowest execution index j : j >= i.
//	    if(E does not exist) break;
//	    operation op = E.ops[j-i];
//	    executionTrace.insert(queueNode(op)).setAvailable();
//	}
//
// The TestRecoveryMatchesListing5* tests cross-check the two on
// randomized crash states. The reference reads every record the log
// walk finds, to the last line: on a crash-only image that is what
// Recover reads in either mode, and on a faulted one what salvage
// reads. Compaction (Section 8) starts i after the newest snapshot or
// chain record, whose state is folded here with code of its own.
func recoverListing5(pool *pmem.Pool, sp spec.Spec, nprocs, rootBase int) (res listing5, err error) {
	// Load all live records once per iteration, as the listing's
	// "find log entry" does conceptually (it scans the logs).
	logs := make([][]plog.Record, nprocs)
	var newest *plog.Record
	var newestLog *plog.Log
	for pid := 0; pid < nprocs; pid++ {
		l, w, oerr := plog.OpenWalk(pool, pid, pmem.Addr(pool.Root(rootBase+rootLogBase+pid)))
		if oerr != nil {
			return res, oerr
		}
		l.Resume(w)
		logs[pid] = append(w.Live, w.Orphans...)
		for k := range logs[pid] {
			rec := &logs[pid][k]
			if rec.Kind != plog.KindOps && (newest == nil || rec.ExecIdx > newest.ExecIdx) {
				newest, newestLog = rec, l
			}
		}
	}
	if newest != nil {
		if err = res.fold(sp, newestLog, *newest); err != nil {
			return res, err
		}
	}
	for i := res.baseIdx + 1; ; i++ {
		// Find the log entry E with the LOWEST execution index j >= i.
		var best *plog.Record
		for pid := range logs {
			for k := range logs[pid] {
				rec := &logs[pid][k]
				if rec.Kind != plog.KindOps || rec.ExecIdx < i {
					continue
				}
				if best == nil || rec.ExecIdx < best.ExecIdx {
					best = rec
				}
			}
		}
		if best == nil {
			break // E does not exist
		}
		j := best.ExecIdx
		k := int(j - i)
		if k >= len(best.Ops) {
			// The lowest entry with index >= i does not reach back to
			// i: index i was never persisted, so the recoverable
			// prefix ends here (Proposition 5.10 shows this can only
			// happen at the very end of the history).
			break
		}
		res.ordered = append(res.ordered, best.Ops[k])
	}
	return res, nil
}

// fold restores the state at compaction record rec into res.
func (res *listing5) fold(sp spec.Spec, l *plog.Log, rec plog.Record) (err error) {
	res.baseIdx = rec.ExecIdx
	if rec.Kind == plog.KindSnapshot {
		res.seqs, res.baseState, err = snapDecode(rec.State)
		return err
	}
	chain, err := l.ResolveChain(rec)
	if err != nil {
		return err
	}
	var state []uint64
	if res.seqs, state, err = snapDecode(chain[0].Payload); err != nil {
		return err
	}
	st := sp.New()
	if err := st.Restore(state); err != nil {
		return err
	}
	for _, link := range chain[1:] {
		seqs, body, err := snapDecode(link.Payload[1:])
		if err != nil {
			return err
		}
		for pid := range res.seqs {
			if pid < len(seqs) && seqs[pid] > res.seqs[pid] {
				res.seqs[pid] = seqs[pid]
			}
		}
		if link.Payload[0] == deltaFmtOps {
			for ; len(body) >= spec.OpWords; body = body[spec.OpWords:] {
				st.Apply(spec.DecodeOp(body))
			}
		} else if err := st.(spec.DeltaApplier).ApplyDelta(body); err != nil {
			return err
		}
		res.deltas++
	}
	res.baseState = st.Snapshot()
	return nil
}
