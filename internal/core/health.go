package core

// Degraded-mode machinery: health classification of a recovered
// instance, the quarantine gate, error-returning reads, in-place
// recreation of a quarantined object, and the latent-fault scrubber.
//
// The classification rules follow from the construction's invariants:
//
//   - A completed update is always present in its own process's log
//     (the persist stage precedes the return), and helping re-persists
//     the fuzzy window below every later operation. So destroyed log
//     structures mean LOSS only when they leave operations provably
//     unreconstructible: an unreadable log header, a truncating
//     snapshot that no longer decodes, checksummed records that
//     disagree, or persisted operations stranded beyond a gap
//     (impossible in a crash-only execution, Proposition 5.10).
//   - Damage that helping bridged — bad mid-log records whose indices
//     all reappear in orphans or in other logs' records — loses
//     nothing: the instance is merely Degraded.
//   - A single invalid record at a log's append frontier is the
//     ordinary torn in-flight append every crash can produce; it is
//     not damage at all (plog.Walk.BenignTear).

import (
	"errors"
	"fmt"

	"repro/internal/plog"
	"repro/internal/trace"
)

// HealthMode is the coarse health state of a recovered instance.
type HealthMode int

const (
	// ModeHealthy: recovery found nothing beyond ordinary crash
	// artifacts (at most a benign torn tail per log).
	ModeHealthy HealthMode = iota
	// ModeDegraded: media damage was found but every linearized
	// operation was reconstructed (helping bridged the damage). The
	// object serves normally; the damaged log regions have been
	// abandoned behind new appends.
	ModeDegraded
	// ModeQuarantined: evidence of lost linearized operations. Update
	// and TryRead fail with ErrObjectQuarantined until Recreate.
	ModeQuarantined
)

func (m HealthMode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeDegraded:
		return "degraded"
	case ModeQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// Health is an instance's health snapshot (Instance.Health).
type Health struct {
	Mode HealthMode
	// Reason wraps ErrObjectQuarantined and the primary loss evidence
	// (nil unless quarantined).
	Reason error
	// BadSlots, Orphans and LogsUnopened aggregate the per-process
	// salvage counters at recovery time.
	BadSlots     int
	Orphans      int
	LogsUnopened int
}

// SalvageReport details what recovery found (Report.Salvage).
type SalvageReport struct {
	Mode HealthMode
	// Reason is the primary loss evidence (nil unless quarantined).
	Reason error
	// Evidence is every independent piece of loss evidence found.
	Evidence []error
	// PerPid has one entry per process.
	PerPid []PidSalvage
}

// PidSalvage is one process's salvage outcome.
type PidSalvage struct {
	// OpenErr is set when the log did not open at all.
	OpenErr error
	// BadSlots counts same-seq records that failed validation.
	BadSlots int
	// Orphans counts valid records recovered beyond the first damage.
	Orphans int
	// TailTorn reports that all damage sat at the append frontier.
	TailTorn bool
}

// salvageBase carries the salvaged prefix for Recreate.
type salvageBase struct {
	idx   uint64   // LastIdx of the salvaged prefix (0 = empty)
	state []uint64 // object state at idx
	seqs  []uint64 // per-pid highest op seq within the prefix
}

// classifySalvage turns the recovery walk's findings into the
// instance's health state and the report's salvage section, after the
// report is fully built. Both modes call it; a strict recovery reaches
// it only without loss evidence, so it classifies Healthy or Degraded.
func (in *Instance) classifySalvage(rep *Report, evidence []error, damaged bool) {
	salv := rep.Salvage
	h := &Health{Mode: ModeHealthy}
	for _, ps := range salv.PerPid {
		h.BadSlots += ps.BadSlots
		h.Orphans += ps.Orphans
		if ps.OpenErr != nil {
			h.LogsUnopened++
		}
	}
	switch {
	case len(evidence) > 0:
		h.Mode = ModeQuarantined
		h.Reason = fmt.Errorf("%w: %w", ErrObjectQuarantined, primaryEvidence(evidence))
		// Cache the salvaged prefix so Recreate can preserve it.
		in.salvBase = in.replaySalvaged(rep)
	case damaged:
		h.Mode = ModeDegraded
	}
	salv.Mode, salv.Reason, salv.Evidence = h.Mode, h.Reason, evidence
	in.health.Store(h)
}

// primaryEvidence picks the most telling loss evidence for the
// quarantine reason: an unreadable log beats a lost snapshot beats a
// torn record (the full list stays in SalvageReport.Evidence).
func primaryEvidence(evidence []error) error {
	for _, class := range []error{ErrBadSlotHeader, ErrSnapshotCorrupt, ErrTornRecord} {
		for _, e := range evidence {
			if errors.Is(e, class) {
				return e
			}
		}
	}
	return evidence[0]
}

// replaySalvaged computes the object state at the end of the salvaged
// prefix (for Recreate's seed chain base).
func (in *Instance) replaySalvaged(rep *Report) *salvageBase {
	sb := &salvageBase{idx: rep.LastIdx, seqs: make([]uint64, in.cfg.NProcs)}
	if rep.LastIdx == 0 {
		return sb
	}
	st := in.sp.New()
	if rep.BaseState != nil {
		if err := st.Restore(rep.BaseState); err != nil {
			// The snapshot decoded at recovery time; failure here means
			// the spec itself rejects it. Keep the empty base: Recreate
			// then preserves nothing, which quarantine already reported
			// as possible.
			sb.idx = 0
			return sb
		}
	}
	for _, op := range rep.Ordered {
		st.Apply(op)
	}
	sb.state = st.Snapshot()
	for pid := 0; pid < in.cfg.NProcs; pid++ {
		sb.seqs[pid] = rep.PerProcessSeq[pid]
	}
	return sb
}

// quarErr returns the quarantine error when the object refuses
// operations, nil otherwise. One atomic load; nil health (instances
// built by New) is healthy.
func (in *Instance) quarErr() error {
	if h := in.health.Load(); h != nil && h.Mode == ModeQuarantined {
		return h.Reason
	}
	return nil
}

// Health returns the instance's current health snapshot. Instances
// built by New are always healthy; a recovered instance reports what
// recovery classified, and a strict recovery may come back Degraded
// (a strict recovery that finds loss fails instead of quarantining).
func (in *Instance) Health() Health {
	if h := in.health.Load(); h != nil {
		return *h
	}
	return Health{Mode: ModeHealthy}
}

// TryRead is Read with an error return: a quarantined object yields
// ErrObjectQuarantined instead of panicking. Healthy and degraded
// instances behave exactly like Read (no fence, no shared writes).
func (h *Handle) TryRead(code uint64, args ...uint64) (uint64, error) {
	if qerr := h.in.quarErr(); qerr != nil {
		return 0, qerr
	}
	return h.Read(code, args...), nil
}

// Recreate rebuilds a quarantined object in place from its salvaged
// prefix: fresh per-process logs, a seed chain base of the salvaged
// state, a durable root flip, and a fresh trace — then the instance
// returns to ModeHealthy. Operations beyond the salvaged prefix are
// permanently lost; that is exactly what quarantine reported, and
// Recreate is the caller's acknowledgement. Handles obtained before
// Recreate remain valid (they are re-created in place); the call must
// not race in-flight operations.
func (in *Instance) Recreate() error {
	hs := in.health.Load()
	if hs == nil || hs.Mode != ModeQuarantined {
		return errors.New("core: Recreate on a non-quarantined instance")
	}
	cfg := &in.cfg
	// Rebuild with the geometry of the logs that actually existed, not
	// cfg defaults: a recovered instance's Config carries no capacity
	// (geometry lives in the log headers), and the defaults can be far
	// larger than the pool that held the originals.
	capacity, maxOps := cfg.LogCapacity, cfg.LogMaxOps
	for _, l := range in.logs {
		if l != nil {
			capacity, maxOps = l.Capacity(), l.MaxOps()
			break
		}
	}
	logs := make([]*plog.Log, cfg.NProcs)
	for pid := 0; pid < cfg.NProcs; pid++ {
		l, err := plog.Create(in.pool, pid, capacity, maxOps)
		if err != nil {
			return fmt.Errorf("core: recreating log for p%d: %w", pid, err)
		}
		logs[pid] = l
	}
	sb := in.salvBase
	if sb == nil {
		sb = &salvageBase{}
	}
	var sentinel *trace.Node
	if sb.idx > 0 {
		// Seed log 0 with the salvaged prefix so the next crash recovers
		// it; the other logs start empty, as after New.
		if _, err := logs[0].AppendChainBase(append(snapEncode(nil, sb.seqs), sb.state...), sb.idx); err != nil {
			return fmt.Errorf("core: seeding salvaged chain base: %w", err)
		}
		sentinel = trace.NewBase(sb.idx, sb.state, sb.seqs)
	}
	// Durable root flip: after the last SetRoot the new generation is
	// what any future recovery sees. A crash mid-flip recovers a mix of
	// old and new logs; the seed base in log 0 (flipped first)
	// keeps that mix at least as new as the salvaged prefix.
	for pid := 0; pid < cfg.NProcs; pid++ {
		in.pool.SetRoot(cfg.RootBase+rootLogBase+pid, uint64(logs[pid].Base()))
	}
	in.logs = logs
	// cutIdx needs no reset: it is still 0, since a quarantined
	// instance never cuts.
	in.tr = newTrace(cfg, sentinel)
	seqs := map[int]uint64{}
	for pid, s := range sb.seqs {
		seqs[pid] = s
	}
	in.makeHandles(seqs, nil)
	in.salvBase = nil
	in.health.Store(&Health{Mode: ModeHealthy})
	return nil
}

// ---------------------------------------------------------------------
// Scrubber.
// ---------------------------------------------------------------------

// ScrubReport aggregates one scrub pass over every per-process log
// (Instance.Scrub).
type ScrubReport struct {
	// PerPid holds each log's result; an entry for an unopened log has
	// HeaderOK=false and nothing probed.
	PerPid []plog.ScrubResult
	// Faulty reports that at least one log shows latent damage beyond
	// a benign torn tail.
	Faulty bool
}

// ScrubTotals is the instance's cumulative scrub counter snapshot.
type ScrubTotals struct {
	// Runs counts completed Scrub passes.
	Runs uint64
	// FaultyRuns counts passes that found latent damage.
	FaultyRuns uint64
}

// Scrub walks every log's durable image — headers, record lines,
// snapshot payloads — re-verifying checksums against NVM
// (cache-bypassing reads), and reports latent damage before a crash
// would make recovery trip over it. It takes no locks, writes nothing,
// and issues no fences: concurrent operations may race individual
// word reads, so a record being appended right now can read torn — such
// a record is at a frontier and shows up as a benign tear, which Faulty
// ignores. Run it from a maintenance goroutine, never on the hot path.
func (in *Instance) Scrub() ScrubReport {
	rep := ScrubReport{PerPid: make([]plog.ScrubResult, len(in.logs))}
	for pid, l := range in.logs {
		if l == nil {
			rep.PerPid[pid] = plog.ScrubResult{} // HeaderOK=false: unopened
			rep.Faulty = true
			continue
		}
		r := l.Scrub()
		rep.PerPid[pid] = r
		if r.Faulty() {
			rep.Faulty = true
		}
	}
	in.scrubRuns.Add(1)
	if rep.Faulty {
		in.scrubBad.Add(1)
	}
	return rep
}

// ScrubStats returns the cumulative scrub counters.
func (in *Instance) ScrubStats() ScrubTotals {
	return ScrubTotals{Runs: in.scrubRuns.Load(), FaultyRuns: in.scrubBad.Load()}
}

// PressureStats is the log-pressure counter snapshot (Instance.Pressure).
type PressureStats struct {
	// ValveFires counts the log shortages the order stage's room check
	// found and cut (Handle.cutIfDue, reclaim.go): one per shortage.
	ValveFires uint64
	// RingGrows is always 0: logs have no overflow ring to grow. It
	// stays only while the benchmark reports it (bench/metrics.go).
	RingGrows uint64
	// Spills sums the per-log relieved-shortage counters
	// (plog.Log.Spills): one per shortage, like ValveFires.
	Spills int
}

// Pressure returns the cumulative log-pressure counters.
func (in *Instance) Pressure() PressureStats {
	ps := PressureStats{ValveFires: in.valveFires.Load()}
	for _, l := range in.logs {
		if l != nil {
			ps.Spills += l.Spills()
		}
	}
	return ps
}
