// Package workload generates deterministic, seeded operation streams for
// the shipped objects, used by the stress tests, the crash-injection
// harness and the benchmark tables.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/objects"
	"repro/internal/spec"
)

// Step is one generated operation invocation.
type Step struct {
	Code     uint64
	Args     []uint64
	IsUpdate bool
}

// Handle is the per-process operation surface RunSteps drives;
// core.Handle satisfies it.
type Handle interface {
	Update(code uint64, args ...uint64) (ret, id uint64, err error)
	Read(code uint64, args ...uint64) uint64
}

// RunSteps executes steps in order against h, the step-dispatch loop of
// the BenchmarkThroughput* suites. It stops at the first update error.
func RunSteps(h Handle, steps []Step) error {
	for _, st := range steps {
		if st.IsUpdate {
			if _, _, err := h.Update(st.Code, st.Args...); err != nil {
				return err
			}
		} else {
			h.Read(st.Code, st.Args...)
		}
	}
	return nil
}

// Generator produces deterministic op streams for one object spec.
type Generator struct {
	sp      spec.Spec
	updates []objects.OpInfo
	reads   []objects.OpInfo
	// KeySpace bounds generated argument values (small spaces create
	// contention and collisions on maps/sets).
	KeySpace uint64
}

// NewGenerator builds a generator for sp, which must describe its ops.
func NewGenerator(sp spec.Spec) *Generator {
	d, ok := sp.(objects.Describer)
	if !ok {
		panic(fmt.Sprintf("workload: spec %q does not describe its ops", sp.Name()))
	}
	g := &Generator{sp: sp, KeySpace: 64}
	for _, oi := range d.Ops() {
		if oi.Kind == objects.KindUpdate {
			g.updates = append(g.updates, oi)
		} else {
			g.reads = append(g.reads, oi)
		}
	}
	return g
}

// Stream returns n steps for one process: updates with probability
// updatePct/100, reads otherwise, drawn deterministically from seed.
func (g *Generator) Stream(seed int64, n, updatePct int) []Step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		var oi objects.OpInfo
		isUpdate := rng.Intn(100) < updatePct
		if isUpdate || len(g.reads) == 0 {
			oi = g.updates[rng.Intn(len(g.updates))]
			isUpdate = true
		} else {
			oi = g.reads[rng.Intn(len(g.reads))]
		}
		st := Step{Code: oi.Code, IsUpdate: isUpdate}
		for k := 0; k < oi.Arity; k++ {
			st.Args = append(st.Args, uint64(rng.Int63n(int64(g.KeySpace)))+1)
		}
		steps = append(steps, st)
	}
	return steps
}

// Spec returns the generator's object specification.
func (g *Generator) Spec() spec.Spec { return g.sp }

// ---------------------------------------------------------------------
// YCSB-style keyed workloads over the ordered map.
// ---------------------------------------------------------------------

// YCSBWorkload names one of the classic YCSB mixes, interpreted over the
// ordered map (the index-tree-shaped object): A = 50/50 read/update,
// B = 95/5 read-mostly, C = read-only, D = read-latest (reads chase the
// insert frontier), E = short range scans (served by the ordered map's
// floor/ceil/select reads) plus inserts.
type YCSBWorkload string

const (
	YCSBA YCSBWorkload = "ycsb-a" // 50% OMapGet, 50% OMapPut
	YCSBB YCSBWorkload = "ycsb-b" // 95% OMapGet, 5% OMapPut
	YCSBC YCSBWorkload = "ycsb-c" // 100% OMapGet
	YCSBD YCSBWorkload = "ycsb-d" // 95% OMapGet of recently-inserted keys, 5% fresh-key OMapPut
	YCSBE YCSBWorkload = "ycsb-e" // 95% order queries (floor/ceil/select), 5% OMapPut
)

// YCSB generates deterministic keyed op streams for one of the named
// mixes over objects.OrderedMapSpec. Keys follow a scrambled-zipfian
// distribution over [1, KeySpace] — the skewed popular-key access
// pattern the YCSB paper defines — so a handful of hot keys absorb most
// operations, exactly the contention shape the dense ordered-map state
// must absorb without allocating.
type YCSB struct {
	Mix      YCSBWorkload
	KeySpace uint64  // number of distinct keys (default 1024)
	Theta    float64 // zipfian skew exponent, > 1 (default 1.01 ~ YCSB's 0.99)
}

// NewYCSB returns a generator for the given mix with default
// parameters (1024 keys, skew 1.01 — math/rand's Zipf needs s > 1, so
// this is the closest stable stand-in for YCSB's canonical theta 0.99).
func NewYCSB(mix YCSBWorkload) *YCSB {
	return &YCSB{Mix: mix, KeySpace: 1024, Theta: 1.01}
}

// UpdatePct returns the mix's update percentage (for fence accounting).
func (y *YCSB) UpdatePct() int {
	switch y.Mix {
	case YCSBA:
		return 50
	case YCSBB, YCSBD, YCSBE:
		return 5
	default:
		return 0
	}
}

// Preload populates the ordered map with the workload's whole key
// space (as YCSB loads its dataset before measuring) through h, so
// read-heavy mixes measure lookups against a populated index rather
// than misses on an empty one.
func (y *YCSB) Preload(h Handle) error {
	space := y.KeySpace
	if space == 0 {
		space = 1024
	}
	for k := uint64(1); k <= space; k++ {
		if _, _, err := h.Update(objects.OMapPut, k, k*7); err != nil {
			return err
		}
	}
	return nil
}

// Streams returns one deterministic stream of per steps for each of
// nprocs processes (seeded per process), plus the total update count —
// the shared driver setup for the throughput suites.
func (y *YCSB) Streams(nprocs, per int) (streams [][]Step, updates int) {
	streams = make([][]Step, nprocs)
	for pid := range streams {
		streams[pid] = y.Stream(int64(pid)*7919+1, per)
		for _, st := range streams[pid] {
			if st.IsUpdate {
				updates++
			}
		}
	}
	return streams, updates
}

// Stream returns n steps drawn deterministically from seed. Every
// update is an OMapPut of a zipfian key; reads are OMapGet except in
// mix E, where they rotate over the order queries (floor, ceil,
// select) that make the ordered map more than a hash table.
//
// Mix D is the YCSB "read latest" distribution: inserts mint fresh keys
// above the preloaded space (seed-scrambled so concurrent streams churn
// disjoint regions), and reads draw a zipfian RECENCY rank over the
// keys the stream has inserted so far — rank 0 is the newest insert, so
// reads chase the write frontier. Before the first insert, reads fall
// back to the newest preloaded keys. Each process tracks its own
// recency list (streams are generated independently per process), which
// keeps the workload deterministic while preserving the property that
// matters: a reader's hot set is perpetually a few updates old, so
// cached views are always stale and the view-advance machinery (epoch
// checks, catch-up walks) is exercised under churn rather than at rest.
func (y *YCSB) Stream(seed int64, n int) []Step {
	rng := rand.New(rand.NewSource(seed))
	space := y.KeySpace
	if space == 0 {
		space = 1024
	}
	theta := y.Theta
	if theta <= 1 {
		// math/rand's Zipf requires s > 1; 1.01 is the closest stable
		// approximation of YCSB's canonical theta = 0.99 skew.
		theta = 1.01
	}
	zipf := rand.NewZipf(rng, theta, 1, space-1)
	updatePct := y.UpdatePct()
	steps := make([]Step, 0, n)
	var inserted []uint64 // mix D: this stream's inserts, oldest first
	for i := 0; i < n; i++ {
		// Scramble the zipfian rank so hot keys spread over the key space
		// (YCSB's "scrambled zipfian") instead of clustering at 1.
		k := 1 + scramble(zipf.Uint64())%space
		isUpdate := rng.Intn(100) < updatePct
		if y.Mix == YCSBD {
			if isUpdate {
				// Mint a fresh key above the preload, in a seed-local
				// region so parallel streams extend the index rather
				// than overwrite each other's frontier. Regions are
				// space*8 keys wide and drawn from 2^24 slots, so even
				// a 64-stream suite collides with negligible
				// probability (~64^2/2^25) and no realistic stream
				// outgrows its region (5% of n inserts vs 8192 slots).
				k = space + 1 + (scramble(uint64(seed))%(1<<24))*(space*8) + uint64(len(inserted))
				inserted = append(inserted, k)
			} else if len(inserted) > 0 {
				r := zipf.Uint64() // skewed toward 0 = most recent
				if r >= uint64(len(inserted)) {
					r = uint64(len(inserted)) - 1
				}
				k = inserted[uint64(len(inserted))-1-r]
			} else {
				k = space - zipf.Uint64()%space // newest preloaded keys
			}
		}
		switch {
		case isUpdate:
			steps = append(steps, Step{
				Code: objects.OMapPut, IsUpdate: true,
				Args: []uint64{k, rng.Uint64() >> 16},
			})
		case y.Mix == YCSBE:
			switch i % 3 {
			case 0:
				steps = append(steps, Step{Code: objects.OMapFloor, Args: []uint64{k}})
			case 1:
				steps = append(steps, Step{Code: objects.OMapCeil, Args: []uint64{k}})
			default:
				steps = append(steps, Step{Code: objects.OMapSelect, Args: []uint64{k % 64}})
			}
		default:
			steps = append(steps, Step{Code: objects.OMapGet, Args: []uint64{k}})
		}
	}
	return steps
}

// scramble is the YCSB fnv-style rank scrambler (64-bit mix).
func scramble(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ---------------------------------------------------------------------
// Shared sizing policy for the throughput suites.
// ---------------------------------------------------------------------

// ThroughputLogCapacity and ThroughputPoolBytes are the instance
// geometry the BenchmarkThroughput* suites and onllserve use for nprocs
// simulated processes. Past 8 processes the per-process logs shrink —
// the worst-case record a region is sized for grows with the
// fuzzy-window bound, i.e. with nprocs — keeping 64 logs inside a
// CI-class memory budget.
func ThroughputLogCapacity(nprocs int) int {
	if nprocs > 8 {
		return 1 << 9
	}
	return 1 << 12
}

// ThroughputPoolBytes returns the pool size fitting nprocs such logs.
func ThroughputPoolBytes(nprocs int) int {
	if nprocs > 8 {
		return 1 << 27
	}
	return 1 << 26
}
