package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// Op streams are generated from -seed into fixed cycles before timing
// starts: the program under test receives only generated inputs, and
// the timed loops replay a cycle without touching a random source.
//
// Updates are owner-partitioned: worker (or connection) w of nw writes
// only keys ≡ w mod nw, with value seq<<8|w where seq is w's own update
// counter. Every key therefore has one writer and strictly increasing
// values, so the recovered state and per-key read monotonicity are
// checkable exactly without recording a history.

// step is one pre-generated operation.
type step struct {
	key uint32
	upd bool
}

// scramble is the YCSB rank scrambler (64-bit mix): hot zipfian ranks
// spread over the key space instead of clustering at 0.
func scramble(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// workerSeed derives worker w's generator seed from the run seed.
func workerSeed(seed int64, w int) int64 { return seed*7919 + int64(w)*104729 + 1 }

// genKeyed returns worker w's cycle of n steps over keys [0, space):
// scrambled-zipfian keys, updatePct percent of them updates moved into
// w's residue class. space must be a multiple of nw.
func genKeyed(seed int64, w, nw, n, space, updatePct int) []step {
	rng := rand.New(rand.NewSource(workerSeed(seed, w)))
	zipf := rand.NewZipf(rng, zipfTheta, 1, uint64(space-1))
	steps := make([]step, n)
	for i := range steps {
		k := int(scramble(zipf.Uint64()) % uint64(space))
		upd := rng.Intn(100) < updatePct
		if upd {
			k = k - k%nw + w
		}
		steps[i] = step{key: uint32(k), upd: upd}
	}
	return steps
}

// genOffsets returns n scrambled-zipfian offsets into a window of the
// given size (lib-churn's reads).
func genOffsets(seed int64, n, window int) []uint32 {
	rng := rand.New(rand.NewSource(workerSeed(seed, 0)))
	zipf := rand.NewZipf(rng, zipfTheta, 1, uint64(window-1))
	offs := make([]uint32, n)
	for i := range offs {
		offs[i] = uint32(scramble(zipf.Uint64()) % uint64(window))
	}
	return offs
}

// genArrivals returns n unit-mean exponential gaps; an open-loop rung
// at rate r schedules request i at the running sum of gaps[i]/r, a
// Poisson process.
func genArrivals(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(workerSeed(seed, 255)))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
	}
	return gaps
}

// streamHasher folds every generated input into gen.stream_hash, the
// fingerprint that says two runs measured the same inputs.
type streamHasher struct{ sum uint64 }

func (s *streamHasher) addSteps(steps []step) {
	h := fnv.New64a()
	var b [5]byte
	for _, st := range steps {
		binary.LittleEndian.PutUint32(b[:], st.key)
		b[4] = 0
		if st.upd {
			b[4] = 1
		}
		h.Write(b[:])
	}
	s.sum = s.sum*0x100000001b3 ^ h.Sum64()
}

func (s *streamHasher) addWords(ws []uint32) {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	s.sum = s.sum*0x100000001b3 ^ h.Sum64()
}

func (s *streamHasher) addFloats(fs []float64) {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	s.sum = s.sum*0x100000001b3 ^ h.Sum64()
}

// value is the hash cut to 48 bits, exact as a JSON number.
func (s *streamHasher) value() float64 { return float64(s.sum & (1<<48 - 1)) }
