package main

import (
	"math"
	"slices"
	"time"
)

// nSegments is how many equal-count segments a run's latency samples
// are split into for tail percentiles: a host stall lands in one
// segment and the median over segments ignores it, a systematic tail
// shows in all of them.
const nSegments = 10

// minSegmentSamples is the fewest samples a segment needs for its p99
// to have ten samples beyond it.
const minSegmentSamples = 1000

// nSlices is how many equal time slices the measured window is cut
// into; ops_per_s is the median slice's rate, so one host stall does
// not move it.
const nSlices = 20

// sliceRates turns each worker's cumulative op counts at the slice
// boundaries into the run's ops per second in each slice.
func sliceRates(marks [][]uint64, dur time.Duration) []float64 {
	rates := make([]float64, 0, nSlices)
	for i := 0; i < nSlices; i++ {
		var n uint64
		for _, m := range marks {
			if i >= len(m) {
				continue
			}
			prev := uint64(0)
			if i > 0 {
				prev = m[i-1]
			}
			n += m[i] - prev
		}
		rates = append(rates, float64(n)/(dur.Seconds()/nSlices))
	}
	return rates
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank,
// 0 for an empty slice.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// fastTwentieth returns the 5th percentile of vs by nearest rank (the
// fastest for fewer than 20), 0 for none. vs is sorted in place.
func fastTwentieth(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	return vs[len(vs)/20]
}

// median returns the median of vs (mean of the middle pair for an even
// count), 0 for none. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// segment returns part i of n equal-count parts of samples, which are
// in arrival order.
func segment(samples []uint32, i, n int) []uint32 {
	return samples[len(samples)*i/n : len(samples)*(i+1)/n]
}

// latency summarises one op class's samples: the median over all of
// them, and for the tail percentiles the median over segments of each
// segment's percentile.
type latency struct {
	p50, p90, p99 float64
	n             int
}

// summarize computes the latency summary of samples, in their unit.
// Each inner slice is one worker's samples in arrival order; segment j
// of the run is the union of every worker's j-th part. With fewer than
// minSegmentSamples per segment the tail is taken over the whole run.
func summarize(perWorker [][]uint32) latency {
	var l latency
	for _, s := range perWorker {
		l.n += len(s)
	}
	if l.n == 0 {
		return l
	}
	all := make([]uint32, 0, l.n)
	for _, s := range perWorker {
		all = append(all, s...)
	}
	slices.Sort(all)
	l.p50 = percentile(all, 0.50)
	if l.n/nSegments < minSegmentSamples {
		l.p90, l.p99 = percentile(all, 0.90), percentile(all, 0.99)
		return l
	}
	p90s := make([]float64, 0, nSegments)
	p99s := make([]float64, 0, nSegments)
	seg := make([]uint32, 0, l.n/nSegments+len(perWorker))
	for j := 0; j < nSegments; j++ {
		seg = seg[:0]
		for _, s := range perWorker {
			seg = append(seg, segment(s, j, nSegments)...)
		}
		slices.Sort(seg)
		p90s = append(p90s, percentile(seg, 0.90))
		p99s = append(p99s, percentile(seg, 0.99))
	}
	l.p90, l.p99 = median(p90s), median(p99s)
	return l
}

// rung is one open-loop rate step's outcome.
type rung struct {
	offered    float64 // requests per second scheduled
	achieved   float64 // responses per second over the rung
	backlogEnd int     // requests outstanding when the last one was sent
	abandoned  bool    // backlog passed one second of offered load
	failed     int     // errors, refusals, bad statuses, mismatches
	p99Us      float64 // segment-median p99, worst op class
	lateP50Us  float64 // generator lateness
}

// valid reports whether the generator kept its schedule; an invalid
// rung says nothing about the service.
func (r rung) valid() bool { return r.lateP50Us <= 5 }

// ok is the ladder's pass rule for one rung.
func (r rung) ok() bool {
	return r.valid() && !r.abandoned && r.failed == 0 &&
		r.achieved >= 0.97*r.offered &&
		float64(r.backlogEnd) <= 0.01*r.offered &&
		r.p99Us <= latencyLimitUs
}

// maxRateOK is the highest offered rate of the leading run of passing
// rungs: the ladder stops at the first failure.
func maxRateOK(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.ok() {
			break
		}
		best = r.offered
	}
	return best
}
