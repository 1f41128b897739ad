package objects

import (
	"fmt"
	"slices"

	"repro/internal/spec"
)

// OrderedMap is a sorted word-to-word map with order queries (floor,
// ceiling, rank, select, min, max). It exists to exercise the universal
// construction with an object whose read operations are structurally
// richer than point lookups — the index-tree shape that dominates the
// persistent-data-structure literature the paper cites (FPTree, NV-Tree,
// WORT).
//
// The state is a blocked sorted array (omapState below); all operations
// are deterministic, and the snapshot is the sorted pair sequence
// itself, whatever the block boundaries happen to be.

// OrderedMap opcodes.
const (
	OMapPut    uint64 = iota + 101 // update: m[arg0]=arg1; old value or RetMissing
	OMapDel                        // update: delete arg0; old value or RetMissing
	OMapGet                        // read: value or RetMissing
	OMapFloor                      // read: greatest key <= arg0, or RetMissing
	OMapCeil                       // read: least key >= arg0, or RetMissing
	OMapRank                       // read: #keys < arg0
	OMapSelect                     // read: the arg0-th smallest key (0-based) or RetMissing
	OMapMin                        // read: smallest key or RetMissing
	OMapMax                        // read: largest key or RetMissing
	OMapLen                        // read: size
)

// OrderedMapSpec is the sorted map specification.
type OrderedMapSpec struct{}

func (OrderedMapSpec) Name() string    { return "orderedmap" }
func (OrderedMapSpec) New() spec.State { return &omapState{} }
func (OrderedMapSpec) Ops() []OpInfo {
	return []OpInfo{
		{OMapPut, "put", KindUpdate, 2},
		{OMapDel, "del", KindUpdate, 1},
		{OMapGet, "get", KindRead, 1},
		{OMapFloor, "floor", KindRead, 1},
		{OMapCeil, "ceil", KindRead, 1},
		{OMapRank, "rank", KindRead, 1},
		{OMapSelect, "select", KindRead, 1},
		{OMapMin, "min", KindRead, 0},
		{OMapMax, "max", KindRead, 0},
		{OMapLen, "len", KindRead, 0},
	}
}

// Block geometry. A block holds at most omapBlockCap pairs, so an
// insert or delete moves at most one block (8 KiB) wherever the key
// falls. The 128/256/512/1024 sweep is in EXPERIMENTS.md ("OrderedMap
// block capacity"): 256 and 512 lead lib-churn together, smaller
// blocks shift less per insert, and the index work per insert grows as
// n/cap^2, which is what 512 buys at a million keys and beyond.
const (
	omapBlockCap = 512
	// Two adjacent blocks that together hold at most this many pairs
	// merge after a delete. Half a block, so a merged block is at most
	// half full and takes as many puts again before it can split.
	omapMergeAt = omapBlockCap / 2
	// Restore fills blocks three quarters full: scattered puts into a
	// recovered map then find room, and it still takes a third fewer
	// blocks than the halves a split leaves.
	omapRestoreFill = omapBlockCap * 3 / 4
	// Emptied blocks kept for the next split or append. A sliding
	// window (put above the maximum, delete the minimum) frees one
	// block for every one it opens, so a few make it allocation-free.
	omapMaxSpare = 4
)

// omapBlock is one run of pairs in ascending key order. keys and vals
// are the two halves of one 2*omapBlockCap-word array: len is the
// number of pairs held, cap is omapBlockCap.
type omapBlock struct {
	keys, vals []uint64
}

// omapState is a two-level sorted array: blocks in ascending order and,
// parallel to them, each block's last key.
//
// Invariant (checked by checkOMapInvariant in the tests): no block is
// empty; keys ascend strictly within and across blocks; maxs[i] is
// blocks[i]'s last key; n is the sum of the block lengths; any two
// adjacent blocks hold more than omapMergeAt pairs together, which
// bounds the block count at 4n/omapBlockCap + 1 under any sequence of
// deletes; spare holds at most omapMaxSpare blocks, all empty.
type omapState struct {
	n      int
	blocks []omapBlock
	maxs   []uint64
	spare  []omapBlock
}

// closeGap removes a[pos] by moving the words above it down one slot,
// in pieces of under 2 KiB: at 2 KiB the runtime's amd64 memmove
// switches to REP MOVS, which crawls when source and destination
// overlap by all but one word (4.5x the time for a 512-word shift;
// the upward shift of an insert takes another path and needs no care).
func closeGap(a []uint64, pos int) []uint64 {
	const piece = 255
	n := len(a) - 1
	for ; n-pos > piece; pos += piece {
		copy(a[pos:pos+piece], a[pos+1:])
	}
	copy(a[pos:n], a[pos+1:])
	return a[:n]
}

// lowerBound returns the first index of the ascending slice a whose
// element is >= k, len(a) if there is none. Written out rather than
// slices.BinarySearch, which does the same steps but is not inlined
// into search: that call cost lib-read a tenth of its throughput
// (EXPERIMENTS.md, PR 20).
func lowerBound(a []uint64, k uint64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search returns the block that holds k or would receive it, k's
// insertion index in that block, and whether k is present. A k above
// every key yields bi == len(s.blocks).
//
//onll:hotpath
func (s *omapState) search(k uint64) (bi, pos int, ok bool) {
	bi = lowerBound(s.maxs, k)
	if bi == len(s.blocks) {
		return bi, 0, false
	}
	keys := s.blocks[bi].keys
	pos = lowerBound(keys, k) // < len(keys): the block's last key is >= k
	return bi, pos, keys[pos] == k
}

// newBlock returns an empty block: a spare one if there is any.
//
//onll:hotpath
func (s *omapState) newBlock() omapBlock {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return b
	}
	buf := make([]uint64, 2*omapBlockCap) //onll:allocok(a map that grows opens a block; a map that only slides reuses a spare)
	return omapBlock{keys: buf[:0:omapBlockCap], vals: buf[omapBlockCap:omapBlockCap]}
}

func (s *omapState) insertBlock(i int, b omapBlock, max uint64) {
	s.blocks = slices.Insert(s.blocks, i, b)
	s.maxs = slices.Insert(s.maxs, i, max)
}

// removeBlock unlinks block i and keeps it as a spare if there is room.
func (s *omapState) removeBlock(i int) {
	if b := s.blocks[i]; len(s.spare) < omapMaxSpare {
		s.spare = append(s.spare, omapBlock{keys: b.keys[:0], vals: b.vals[:0]})
	}
	s.blocks = slices.Delete(s.blocks, i, i+1)
	s.maxs = slices.Delete(s.maxs, i, i+1)
}

// setBlocks makes the state hold exactly nb blocks of unspecified
// content, keeping its own blocks and spares before allocating: what
// CopyFrom and Restore overwrite.
func (s *omapState) setBlocks(nb int) {
	for len(s.blocks) > nb {
		s.removeBlock(len(s.blocks) - 1)
	}
	for len(s.blocks) < nb {
		s.insertBlock(len(s.blocks), s.newBlock(), 0)
	}
}

//onll:hotpath
func (s *omapState) put(k, v uint64) uint64 {
	bi, pos, ok := s.search(k)
	if ok {
		vals := s.blocks[bi].vals
		old := vals[pos]
		vals[pos] = v
		return old
	}
	s.n++
	if bi == len(s.blocks) {
		// Above the maximum: the last block takes it, and a full one is
		// followed by a new block rather than split, so an ascending
		// load leaves every block full.
		if bi == 0 || len(s.blocks[bi-1].keys) == omapBlockCap {
			s.insertBlock(bi, s.newBlock(), k)
		} else {
			bi--
		}
		b := &s.blocks[bi]
		b.keys, b.vals = append(b.keys, k), append(b.vals, v)
		s.maxs[bi] = k
		return spec.RetMissing
	}
	if len(s.blocks[bi].keys) == omapBlockCap {
		const h = omapBlockCap / 2
		up := s.newBlock()
		lo := &s.blocks[bi]
		up.keys, up.vals = append(up.keys, lo.keys[h:]...), append(up.vals, lo.vals[h:]...)
		lo.keys, lo.vals = lo.keys[:h], lo.vals[:h]
		s.insertBlock(bi+1, up, s.maxs[bi])
		s.maxs[bi] = s.blocks[bi].keys[h-1]
		if pos >= h {
			bi, pos = bi+1, pos-h
		}
	}
	// pos is below the block's length here, so its last key stands.
	b := &s.blocks[bi]
	n := len(b.keys)
	b.keys, b.vals = b.keys[:n+1], b.vals[:n+1]
	copy(b.keys[pos+1:], b.keys[pos:n])
	copy(b.vals[pos+1:], b.vals[pos:n])
	b.keys[pos], b.vals[pos] = k, v
	return spec.RetMissing
}

//onll:hotpath
func (s *omapState) del(k uint64) uint64 {
	bi, pos, ok := s.search(k)
	if !ok {
		return spec.RetMissing
	}
	b := &s.blocks[bi]
	old := b.vals[pos]
	b.keys, b.vals = closeGap(b.keys, pos), closeGap(b.vals, pos)
	n := len(b.keys)
	s.n--
	if n == 0 {
		// Its neighbours each held at least omapMergeAt pairs beside
		// this block's one, so together they need no merge.
		s.removeBlock(bi)
		return old
	}
	if pos == n {
		s.maxs[bi] = b.keys[n-1]
	}
	// One merge restores the invariant: the merged block is larger than
	// either part, so its own neighbours still clear omapMergeAt.
	if bi+1 < len(s.blocks) && n+len(s.blocks[bi+1].keys) <= omapMergeAt {
		s.mergeNext(bi)
	} else if bi > 0 && len(s.blocks[bi-1].keys)+n <= omapMergeAt {
		s.mergeNext(bi - 1)
	}
	return old
}

// mergeNext appends block i+1's pairs to block i and unlinks it.
func (s *omapState) mergeNext(i int) {
	b, nx := &s.blocks[i], s.blocks[i+1]
	b.keys, b.vals = append(b.keys, nx.keys...), append(b.vals, nx.vals...)
	s.maxs[i] = s.maxs[i+1]
	s.removeBlock(i + 1)
}

//onll:hotpath
func (s *omapState) Apply(op spec.Op) uint64 {
	switch op.Code {
	case OMapPut:
		return s.put(op.Args[0], op.Args[1])
	case OMapDel:
		return s.del(op.Args[0])
	}
	panic(fmt.Sprintf("orderedmap: bad update opcode %d", op.Code))
}

//onll:hotpath
func (s *omapState) Read(op spec.Op) uint64 {
	k := op.Args[0]
	switch op.Code {
	case OMapGet:
		// search written out: as a call with three results it cost
		// lib-read 4 % of its throughput (EXPERIMENTS.md, PR 20).
		if bi := lowerBound(s.maxs, k); bi < len(s.blocks) {
			b := &s.blocks[bi]
			if pos := lowerBound(b.keys, k); b.keys[pos] == k {
				return b.vals[pos]
			}
		}
		return spec.RetMissing
	case OMapFloor:
		bi, pos, ok := s.search(k)
		switch {
		case ok:
			return k
		case pos > 0:
			return s.blocks[bi].keys[pos-1]
		case bi > 0:
			return s.maxs[bi-1]
		}
		return spec.RetMissing
	case OMapCeil:
		bi, pos, _ := s.search(k)
		if bi == len(s.blocks) {
			return spec.RetMissing
		}
		return s.blocks[bi].keys[pos]
	case OMapRank:
		bi, pos, _ := s.search(k)
		for _, b := range s.blocks[:bi] {
			pos += len(b.keys)
		}
		return uint64(pos)
	case OMapSelect:
		if k >= uint64(s.n) {
			return spec.RetMissing
		}
		i := int(k)
		for _, b := range s.blocks {
			if i < len(b.keys) {
				return b.keys[i]
			}
			i -= len(b.keys)
		}
	case OMapMin:
		if s.n == 0 {
			return spec.RetMissing
		}
		return s.blocks[0].keys[0]
	case OMapMax:
		if s.n == 0 {
			return spec.RetMissing
		}
		return s.maxs[len(s.maxs)-1]
	case OMapLen:
		return uint64(s.n)
	}
	panic(fmt.Sprintf("orderedmap: bad read opcode %d", op.Code))
}

func (s *omapState) Clone() spec.State {
	c := &omapState{}
	c.CopyFrom(s)
	return c
}

const tagOMap = 0xC0DE000B

func (s *omapState) Snapshot() []uint64 { return snapshotOf(s) }

// AppendSnapshot writes the pairs block by block: each block grows dst
// once and interleaves its key and value halves into it.
func (s *omapState) AppendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, tagOMap, uint64(s.n))
	for _, b := range s.blocks {
		at := len(dst)
		dst = slices.Grow(dst, 2*len(b.keys))[:at+2*len(b.keys)]
		out := dst[at:]
		for i, k := range b.keys {
			out[2*i], out[2*i+1] = k, b.vals[i]
		}
	}
	return dst
}

func (s *omapState) Restore(w []uint64) error {
	// Pair count validated without the overflowing 2*w[1] product: a
	// header claiming 2^63+1 pairs used to slip past `len(w)-2 == 2*w[1]`
	// and panic in make. The checks below also run BEFORE any mutation,
	// so a failed Restore leaves the previous state intact instead of
	// half-overwritten.
	if len(w) < 2 || w[0] != tagOMap || w[1] != uint64(len(w)-2)/2 || (len(w)-2)%2 != 0 {
		return snapshotHeaderMismatch("orderedmap", tagOMap, first(w))
	}
	n := int(w[1])
	for i := 1; i < n; i++ {
		if w[2*i] >= w[2+2*i] {
			return fmt.Errorf("objects: orderedmap snapshot keys not strictly sorted at %d", i)
		}
	}
	s.setBlocks((n + omapRestoreFill - 1) / omapRestoreFill)
	s.n = n
	w = w[2:]
	for i := range s.blocks {
		b := &s.blocks[i]
		m := min(omapRestoreFill, len(w)/2)
		b.keys, b.vals = b.keys[:m], b.vals[:m]
		for j := range b.keys {
			b.keys[j], b.vals[j] = w[2*j], w[2*j+1]
		}
		s.maxs[i] = b.keys[m-1]
		w = w[2*m:]
	}
	return nil
}
