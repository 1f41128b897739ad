package objects

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/spec"
)

// flatOMap is the layout omapState had before it was blocked: two flat
// sorted slices, searched with sort.Search. It stays here as the
// reference every test below compares the blocked layout against,
// return value by return value and snapshot word by snapshot word.
type flatOMap struct{ keys, vals []uint64 }

func (f *flatOMap) search(k uint64) (int, bool) {
	i := sort.Search(len(f.keys), func(i int) bool { return f.keys[i] >= k })
	return i, i < len(f.keys) && f.keys[i] == k
}

func (f *flatOMap) Apply(op spec.Op) uint64 {
	k := op.Args[0]
	i, ok := f.search(k)
	switch {
	case op.Code == OMapPut && ok:
		old := f.vals[i]
		f.vals[i] = op.Args[1]
		return old
	case op.Code == OMapPut:
		f.keys = slices.Insert(f.keys, i, k)
		f.vals = slices.Insert(f.vals, i, op.Args[1])
	case op.Code == OMapDel && ok:
		old := f.vals[i]
		f.keys = slices.Delete(f.keys, i, i+1)
		f.vals = slices.Delete(f.vals, i, i+1)
		return old
	}
	return spec.RetMissing
}

func (f *flatOMap) Read(op spec.Op) uint64 {
	k := op.Args[0]
	i, ok := f.search(k)
	switch op.Code {
	case OMapGet:
		if ok {
			return f.vals[i]
		}
	case OMapFloor:
		if ok {
			return k
		}
		if i > 0 {
			return f.keys[i-1]
		}
	case OMapCeil:
		if i < len(f.keys) {
			return f.keys[i]
		}
	case OMapRank:
		return uint64(i)
	case OMapSelect:
		if k < uint64(len(f.keys)) {
			return f.keys[k]
		}
	case OMapMin:
		if len(f.keys) > 0 {
			return f.keys[0]
		}
	case OMapMax:
		if len(f.keys) > 0 {
			return f.keys[len(f.keys)-1]
		}
	case OMapLen:
		return uint64(len(f.keys))
	}
	return spec.RetMissing
}

func (f *flatOMap) Snapshot() []uint64 {
	out := []uint64{tagOMap, uint64(len(f.keys))}
	for i := range f.keys {
		out = append(out, f.keys[i], f.vals[i])
	}
	return out
}

// checkOMapInvariant checks the structural invariant stated on
// omapState, plus that no two blocks (spares included) share storage.
func checkOMapInvariant(t testing.TB, s *omapState) {
	if len(s.maxs) != len(s.blocks) {
		t.Fatalf("%d maxs for %d blocks", len(s.maxs), len(s.blocks))
	}
	seen := map[*uint64]bool{}
	own := func(what string, i int, b omapBlock) {
		if cap(b.keys) != omapBlockCap || cap(b.vals) != omapBlockCap {
			t.Fatalf("%s %d: cap %d/%d, want %d", what, i, cap(b.keys), cap(b.vals), omapBlockCap)
		}
		for _, p := range []*uint64{&b.keys[:1][0], &b.vals[:1][0]} {
			if seen[p] {
				t.Fatalf("%s %d shares storage with another block", what, i)
			}
			seen[p] = true
		}
	}
	n := 0
	for i, b := range s.blocks {
		own("block", i, b)
		if len(b.keys) == 0 || len(b.keys) != len(b.vals) {
			t.Fatalf("block %d holds %d keys, %d vals", i, len(b.keys), len(b.vals))
		}
		if i > 0 && b.keys[0] <= s.maxs[i-1] {
			t.Fatalf("block %d starts at %d, not above block %d's last key %d", i, b.keys[0], i-1, s.maxs[i-1])
		}
		for j := 1; j < len(b.keys); j++ {
			if b.keys[j-1] >= b.keys[j] {
				t.Fatalf("block %d not strictly ascending at %d", i, j)
			}
		}
		if last := b.keys[len(b.keys)-1]; s.maxs[i] != last {
			t.Fatalf("maxs[%d] = %d, block's last key is %d", i, s.maxs[i], last)
		}
		if i > 0 && len(s.blocks[i-1].keys)+len(b.keys) <= omapMergeAt {
			t.Fatalf("blocks %d and %d hold %d+%d pairs and were not merged", i-1, i, len(s.blocks[i-1].keys), len(b.keys))
		}
		n += len(b.keys)
	}
	if n != s.n {
		t.Fatalf("n = %d, blocks hold %d", s.n, n)
	}
	if len(s.spare) > omapMaxSpare {
		t.Fatalf("%d spare blocks, bound is %d", len(s.spare), omapMaxSpare)
	}
	for i, b := range s.spare {
		own("spare", i, b)
		if len(b.keys) != 0 || len(b.vals) != 0 {
			t.Fatalf("spare %d is not empty", i)
		}
	}
}

// omapPair is a blocked state and the flat reference holding the same
// contents. Its methods run once per key per check and so do without
// t.Helper, whose stack walk would be most of the test's time.
type omapPair struct {
	t   testing.TB
	s   *omapState
	ref *flatOMap
}

func newOMapPair(t testing.TB) *omapPair {
	return &omapPair{t: t, s: OrderedMapSpec{}.New().(*omapState), ref: &flatOMap{}}
}

func (p *omapPair) apply(code, k, v uint64) {
	op := spec.Op{Code: code, Args: [3]uint64{k, v}}
	if got, want := p.s.Apply(op), p.ref.Apply(op); got != want {
		p.t.Fatalf("apply code %d key %d: got %d, reference %d", code, k, got, want)
	}
}

func (p *omapPair) read(code, arg uint64) {
	op := spec.Op{Code: code, Args: [3]uint64{arg}}
	if got, want := p.s.Read(op), p.ref.Read(op); got != want {
		p.t.Fatalf("read code %d arg %d: got %d, reference %d", code, arg, got, want)
	}
}

// readAround runs the key-taking reads at k and beside it.
func (p *omapPair) readAround(k uint64) {
	for _, a := range []uint64{k - 1, k, k + 1} {
		for _, code := range []uint64{OMapGet, OMapFloor, OMapCeil, OMapRank} {
			p.read(code, a)
		}
	}
}

// checkLight checks the invariant and the reads that do not depend on
// one key.
func (p *omapPair) checkLight() {
	checkOMapInvariant(p.t, p.s)
	n := uint64(len(p.ref.keys))
	for _, code := range []uint64{OMapMin, OMapMax, OMapLen} {
		p.read(code, 0)
	}
	for _, i := range []uint64{0, n / 2, n - 1, n} {
		p.read(OMapSelect, i)
	}
}

// checkFull also runs all eight reads at and around every key and
// compares the snapshot words.
func (p *omapPair) checkFull() {
	p.checkLight()
	p.readAround(0)
	p.readAround(^uint64(0))
	for i, k := range p.ref.keys {
		p.readAround(k)
		p.read(OMapSelect, uint64(i))
	}
	if got, want := p.s.Snapshot(), p.ref.Snapshot(); !slices.Equal(got, want) {
		p.t.Fatalf("snapshot differs from the flat layout's (%d words, reference %d)", len(got), len(want))
	}
}

// An op stream is a sequence of 3-byte records {c, hi, lo}: c&7 is the
// kind, 1+8*(c>>3) the run length (1, 9, ... 249), hi<<8|lo the first
// key; keys wrap at 16 bits. Runs let a short stream fill, drain and
// thin whole blocks, which is what a fuzzer needs to reach splits and
// merges.
const (
	omapPutUp      = iota // put k, k+1, ...
	omapPutDown           // put k, k-1, ...
	omapDelUp             // delete k, k+1, ...
	omapDelDown           // delete k, k-1, ...
	omapPutStride         // put k, k+7, ...
	omapDelStride         // delete k, k+7, ...
	omapRestore           // replace the state by Restore of its own snapshot
	omapCopyFrom          // replace the state by CopyFrom into the previous one
	omapRecordSize = 3
)

// omapRuns gives the opcode and key step of each run kind.
var omapRuns = [...]struct {
	code uint64
	step uint16
}{
	omapPutUp:     {OMapPut, 1},
	omapPutDown:   {OMapPut, ^uint16(0)},
	omapDelUp:     {OMapDel, 1},
	omapDelDown:   {OMapDel, ^uint16(0)},
	omapPutStride: {OMapPut, 7},
	omapDelStride: {OMapDel, 7},
}

// runOMapStream executes an op stream on a blocked state and the flat
// reference: every return value is compared, every record is followed
// by the light check and reads around the keys it touched, and every
// fullEvery-th record (0: none) and the end of the stream by the full
// check.
func runOMapStream(t testing.TB, data []byte, fullEvery int) *omapPair {
	p := newOMapPair(t)
	alt := OrderedMapSpec{}.New().(*omapState) // the warmed CopyFrom destination
	val := uint64(0)
	for r := 0; (r+1)*omapRecordSize <= len(data); r++ {
		c, k := data[r*omapRecordSize], uint16(data[r*omapRecordSize+1])<<8|uint16(data[r*omapRecordSize+2])
		first, last := k, k
		switch kind := int(c & 7); kind {
		case omapRestore:
			if err := p.s.Restore(p.s.Snapshot()); err != nil {
				t.Fatalf("restore of own snapshot: %v", err)
			}
		case omapCopyFrom:
			alt.CopyFrom(p.s)
			p.s, alt = alt, p.s
		default:
			run := omapRuns[kind]
			for i := 0; i < 1+8*int(c>>3); i++ {
				val++
				p.apply(run.code, uint64(k), val)
				last, k = k, k+run.step
			}
		}
		p.checkLight()
		p.readAround(uint64(first))
		p.readAround(uint64(last))
		if fullEvery > 0 && r%fullEvery == fullEvery-1 {
			p.checkFull()
		}
	}
	p.checkFull()
	return p
}

// omapRun appends records of the given kind covering n keys from k0,
// longest runs first.
func omapRun(dst []byte, kind int, k0 uint16, n int) []byte {
	for n > 0 {
		j := min((n-1)/8, 31)
		dst = append(dst, byte(kind|j<<3), byte(k0>>8), byte(k0))
		k0 += omapRuns[kind].step * uint16(1+8*j)
		n -= 1 + 8*j
	}
	return dst
}

// omapScenarios are the block-crossing cases: each runs as a
// differential test and seeds the fuzzer. 2500 keys is a little under
// five full blocks.
func omapScenarios() map[string][]byte {
	const n = 2500
	m := map[string][]byte{}

	b := omapRun(nil, omapPutUp, 100, n)
	m["ascending append, front drain"] = omapRun(b, omapDelUp, 100, n)

	b = omapRun(nil, omapPutDown, 40000, n)
	m["descending prepend, back drain"] = omapRun(b, omapDelDown, 40000, n)

	b = omapRun(nil, omapPutUp, 65000, n) // wraps past key 65535 to 0
	b = omapRun(b, omapDelUp, 65000, n/2)
	b = omapRun(b, omapDelDown, (65000+n-1)&0xffff, n-n/2)
	b = omapRun(b, omapPutStride, 3, n)
	b = append(b, omapRestore, 0, 0, omapCopyFrom, 0, 0)
	b = omapRun(b, omapPutStride, 5, n)
	m["drain to empty from both ends, refill scattered"] = append(b, omapCopyFrom, 0, 0)

	// Thinning: delete every seventh key at each offset in turn, so
	// blocks all over the map shrink together and merge mid-map.
	b = omapRun(nil, omapPutUp, 0, n)
	for off := uint16(0); off < 7; off++ {
		b = omapRun(b, omapDelStride, off, (n+6)/7)
		b = append(b, omapCopyFrom, 0, 0)
	}
	m["thin to empty by stride"] = b

	rng := rand.New(rand.NewSource(1))
	b = nil
	for i := 0; i < 1200; i++ {
		kind := []int{omapPutUp, omapPutDown, omapPutStride, omapDelUp, omapDelDown, omapDelStride}[rng.Intn(6)]
		b = append(b, byte(kind|rng.Intn(3)<<3), byte(rng.Intn(16)), byte(rng.Intn(256)))
		if i%100 == 99 {
			b = append(b, byte(omapRestore+rng.Intn(2)), 0, 0)
		}
	}
	m["random put and delete"] = b
	return m
}

// TestOrderedMapBlocksAgainstFlat is the differential test that leaves
// one block: TestOrderedMapAgainstReferenceQuick draws 32 keys.
func TestOrderedMapBlocksAgainstFlat(t *testing.T) {
	for name, stream := range omapScenarios() {
		t.Run(name, func(t *testing.T) {
			fullEvery := 1
			if len(stream) > 300*omapRecordSize {
				fullEvery = 16
			}
			runOMapStream(t, stream, fullEvery)
		})
	}
}

// FuzzOrderedMapOps runs arbitrary op streams against the flat
// reference; under plain `go test` it runs the scenarios above.
func FuzzOrderedMapOps(f *testing.F) {
	for _, stream := range omapScenarios() {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048*omapRecordSize {
			t.Skip("longer than any seed")
		}
		runOMapStream(t, data, 0)
	})
}

// TestOrderedMapBlockCountBounded: under the delete pattern that leaves
// the emptiest blocks (keep one key in every 512), merging keeps the
// block count within 4n/512 + 1.
func TestOrderedMapBlockCountBounded(t *testing.T) {
	s := OrderedMapSpec{}.New().(*omapState)
	const n = 64 * omapBlockCap
	for k := uint64(0); k < n; k++ {
		s.put(k, k)
	}
	for k := uint64(0); k < n; k++ {
		if k%omapBlockCap != 7 {
			s.del(k)
		}
		if bound := 4*s.n/omapBlockCap + 1; len(s.blocks) > bound {
			t.Fatalf("%d blocks for %d keys, bound %d", len(s.blocks), s.n, bound)
		}
	}
	checkOMapInvariant(t, s)
	if s.n != 64 || len(s.blocks) != 1 {
		t.Fatalf("64 survivors in %d blocks (n=%d), want one block", len(s.blocks), s.n)
	}
}

// TestOrderedMapSnapshotWireFormat pins the snapshot words: a literal
// golden, equality with the flat layout's words over several blocks of
// three shapes (full, half-split, restored), and Restore -> Snapshot.
func TestOrderedMapSnapshotWireFormat(t *testing.T) {
	s := OrderedMapSpec{}.New()
	for _, k := range []uint64{30, 10, 20} {
		apply(t, s, OMapPut, k, k*10)
	}
	apply(t, s, OMapDel, 20)
	if got, want := s.Snapshot(), []uint64{0xC0DE000B, 2, 10, 100, 30, 300}; !slices.Equal(got, want) {
		t.Fatalf("snapshot %#x, want %#x", got, want)
	}
	if got, want := (OrderedMapSpec{}).New().Snapshot(), []uint64{0xC0DE000B, 0}; !slices.Equal(got, want) {
		t.Fatalf("empty snapshot %#x, want %#x", got, want)
	}

	const n = 5*omapBlockCap + 17
	p := newOMapPair(t)
	for k := uint64(0); k < n; k++ { // ascending: full blocks
		p.apply(OMapPut, 3*k, k)
	}
	for k := uint64(0); k < n; k += 2 { // scattered: splits
		p.apply(OMapPut, 3*k+1, k)
	}
	p.checkFull()
	words := p.s.Snapshot()

	r := OrderedMapSpec{}.New().(*omapState)
	if err := r.Restore(words); err != nil {
		t.Fatal(err)
	}
	checkOMapInvariant(t, r)
	if want := (r.n + omapRestoreFill - 1) / omapRestoreFill; len(r.blocks) != want {
		t.Fatalf("restored %d keys into %d blocks, want %d", r.n, len(r.blocks), want)
	}
	if !slices.Equal(r.Snapshot(), words) {
		t.Fatal("Restore -> Snapshot changed the words")
	}
	// A second Restore into the same state refills its blocks.
	first := &r.blocks[0].keys[0]
	if err := r.Restore(words[:2+2*omapBlockCap]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := r.Restore(words); err != nil || &r.blocks[0].keys[0] != first {
		t.Fatalf("second Restore: err %v, block reused %v", err, &r.blocks[0].keys[0] == first)
	}
	(&omapPair{t: t, s: r, ref: p.ref}).checkFull()
}

// TestOrderedMapCopyFromWarmedDestination: the destination held a map
// of another shape (more blocks, fewer blocks, none), and mutating the
// copy leaves the source alone.
func TestOrderedMapCopyFromWarmedDestination(t *testing.T) {
	build := func(n, stride uint64) *omapPair {
		p := newOMapPair(t)
		for i := uint64(0); i < n; i++ {
			p.apply(OMapPut, (i*stride)%(n*4), i) // stride coprime to 4n: scattered, no repeats
		}
		return p
	}
	big, small := build(7*omapBlockCap, 1237), build(omapBlockCap+3, 1)
	dst := OrderedMapSpec{}.New().(*omapState)
	for _, src := range []*omapPair{big, small, newOMapPair(t), small, big} {
		dst.CopyFrom(src.s)
		(&omapPair{t: t, s: dst, ref: src.ref}).checkFull()
		if got, want := len(dst.blocks), len(src.s.blocks); got != want {
			t.Fatalf("copy has %d blocks, source %d", got, want)
		}
	}
	for k := uint64(0); k < 4*7*omapBlockCap; k += 3 {
		dst.del(k)
	}
	checkOMapInvariant(t, dst)
	big.checkFull()
}

// TestOrderedMapDeltaManyBlocks: a window whose keys fall in many
// blocks of a 65 536-key map — puts between existing keys, overwrites,
// deletes, deletes of absent keys, keys below the minimum and above the
// maximum — emits exactly the words a per-key lookup gives, and folds
// into the pre-window state.
func TestOrderedMapDeltaManyBlocks(t *testing.T) {
	base := OrderedMapSpec{}.New().(*omapState)
	for k := uint64(1); k <= 65536; k++ {
		base.put(4*k, k)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		after := base.Clone().(*omapState)
		var ops []spec.Op
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(4*65536 + 40)) // 0..3 are below the minimum, the top 36 above the maximum
			op := spec.Op{Code: OMapPut, Args: [3]uint64{k, uint64(round*1000 + i)}}
			switch {
			case round%2 == 1 && i%2 == 0: // odd rounds touch the two ends only
				op = spec.Op{Code: OMapDel, Args: [3]uint64{after.Read(spec.Op{Code: OMapMin})}}
			case round%2 == 1:
				op.Args[0] = after.Read(spec.Op{Code: OMapMax}) + 1
			case rng.Intn(3) == 0:
				op = spec.Op{Code: OMapDel, Args: [3]uint64{k &^ uint64(rng.Intn(4))}}
			}
			ops = append(ops, op)
			after.Apply(op)
		}
		checkOMapInvariant(t, after)
		words, ok := after.EmitDelta(nil, ops)
		if !ok {
			t.Fatal("emitter declined a put/delete window")
		}
		want := emitKeyed(nil, ops, tagOMapDelta, func(k uint64) (uint64, bool) {
			v := after.Read(spec.Op{Code: OMapGet, Args: [3]uint64{k}})
			return v, v != spec.RetMissing
		})
		if !slices.Equal(words, want) {
			t.Fatalf("round %d: emitted words differ from the per-key lookup's", round)
		}
		if err := base.ApplyDelta(words); err != nil {
			t.Fatal(err)
		}
		checkOMapInvariant(t, base)
		if !spec.Equal(base, after) {
			t.Fatalf("round %d: delta round trip diverged", round)
		}
	}
}

// TestOrderedMapSteadyStateAllocs pins the two paths the layout makes
// allocation-free: the sliding window at 65 536 keys (put above the
// maximum, delete the minimum: the spare list hands every emptied block
// to the next append) and CopyFrom into a destination that has held the
// map before.
func TestOrderedMapSteadyStateAllocs(t *testing.T) {
	s := OrderedMapSpec{}.New().(*omapState)
	lo, hi := uint64(0), uint64(65536)
	for k := lo; k < hi; k++ {
		s.put(k, k)
	}
	slide := func() {
		for i := 0; i < 3*omapBlockCap; i++ { // opens and empties three blocks a run
			s.Apply(spec.Op{Code: OMapPut, Args: [3]uint64{hi, hi}})
			s.Apply(spec.Op{Code: OMapDel, Args: [3]uint64{lo}})
			hi, lo = hi+1, lo+1
		}
	}
	if a := testing.AllocsPerRun(10, slide); a != 0 {
		t.Fatalf("sliding window: %v allocs per %d slides, want 0", a, 3*omapBlockCap)
	}
	checkOMapInvariant(t, s)
	if s.n != 65536 {
		t.Fatalf("window holds %d keys", s.n)
	}

	dst := OrderedMapSpec{}.New().(*omapState)
	if a := testing.AllocsPerRun(10, func() { dst.CopyFrom(s) }); a != 0 {
		t.Fatalf("CopyFrom into a warmed destination: %v allocs, want 0", a)
	}
	if !spec.Equal(dst, s) {
		t.Fatal("copy differs")
	}
}
