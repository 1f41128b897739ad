package objects

import (
	"slices"

	"repro/internal/spec"
)

// spec.DeltaEmitter / spec.DeltaApplier implementations for the keyed
// states (map, set, ordered map): the objects whose snapshots grow with
// the key space and therefore dominate compaction cost under
// insert-heavy churn. The emitted diff is last-writer-wins over the
// keys the ops touched: [tag, n, k1..kn, state1..staten] with the keys
// sorted and deduped (deterministic, like snapshots) and each state
// entry recording the key's CURRENT standing in the post-ops state —
// so a put overwritten by a later delete within the same window emits
// one tombstone, not two entries. Cost is O(churn-since-cut), never
// O(state). Everything else (stacks, queues, ledgers, ...) falls back
// to core's universal op-replay delta encoding.
//
// Every emitter declines (ok false) on an opcode it cannot summarize —
// a conservative escape hatch that keeps the fallback authoritative.

// Delta wire tags, distinct from the snapshot tags so a diff restored
// into the wrong decoder fails loudly.
const (
	tagSetDelta  = 0xD17A0006
	tagMapDelta  = 0xD17A0007
	tagOMapDelta = 0xD17A000B
)

// deltaPresent / deltaAbsent are the per-key state markers: present
// carries the key's current value in the next word for valued objects;
// absent is a tombstone.
const (
	deltaAbsent  uint64 = 0
	deltaPresent uint64 = 1
)

// appendTouchedKeys appends Args[0] of every op to dst, then sorts and
// dedupes the appended region in place, returning the extended slice.
// All keyed objects carry the key in Args[0] for every update opcode.
func appendTouchedKeys(dst []uint64, ops []spec.Op) []uint64 {
	start := len(dst)
	for _, op := range ops {
		dst = append(dst, op.Args[0])
	}
	ks := dst[start:]
	// slices.Sort is in-place and allocation-free; a hand-rolled
	// insertion sort went quadratic here on random-key windows (a
	// compaction cadence of 1024 zipfian ops cost ~half a millisecond
	// PER CUT, dwarfing the words the delta saved).
	slices.Sort(ks)
	w := 0
	for r := 0; r < len(ks); r++ {
		if r == 0 || ks[r] != ks[w-1] {
			ks[w] = ks[r]
			w++
		}
	}
	return dst[:start+w]
}

// emitKeyed builds the LWW diff shared by map and ordered map: header,
// sorted unique keys, then one (marker, value) pair per key read from
// lookup on the post-ops state.
func emitKeyed(dst []uint64, ops []spec.Op, tag uint64, lookup func(k uint64) (uint64, bool)) []uint64 {
	start := len(dst)
	dst = append(dst, tag, 0)
	dst = appendTouchedKeys(dst, ops)
	n := len(dst) - start - 2
	dst[start+1] = uint64(n)
	for _, k := range dst[start+2 : start+2+n] {
		if v, ok := lookup(k); ok {
			dst = append(dst, deltaPresent, v)
		} else {
			dst = append(dst, deltaAbsent, 0)
		}
	}
	return dst
}

// applyKeyed folds an emitKeyed diff: put present keys, delete absent
// ones. Validated as untrusted input.
func applyKeyed(w []uint64, tag uint64, name string, put func(k, v uint64), del func(k uint64)) error {
	if len(w) < 2 || w[0] != tag {
		return snapshotHeaderMismatch(name+" delta", tag, first(w))
	}
	n := w[1]
	if n != uint64(len(w)-2)/3 || (len(w)-2)%3 != 0 {
		return snapshotHeaderMismatch(name+" delta", tag, first(w))
	}
	keys, pv := w[2:2+n], w[2+n:]
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return snapshotHeaderMismatch(name+" delta", tag, first(w))
		}
		switch pv[2*i] {
		case deltaPresent:
			put(k, pv[2*i+1])
		case deltaAbsent:
			del(k)
		default:
			return snapshotHeaderMismatch(name+" delta", tag, first(w))
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Map.
// ---------------------------------------------------------------------

func (s *mapState) EmitDelta(dst []uint64, ops []spec.Op) ([]uint64, bool) {
	for _, op := range ops {
		switch op.Code {
		case MapPut, MapDel, MapCAS:
		default:
			return dst, false
		}
	}
	return emitKeyed(dst, ops, tagMapDelta, s.t.get), true
}

func (s *mapState) ApplyDelta(w []uint64) error {
	return applyKeyed(w, tagMapDelta, "map",
		func(k, v uint64) { s.t.put(k, v) },
		func(k uint64) { s.t.del(k) })
}

// ---------------------------------------------------------------------
// Set: same shape with the value word carrying 0 (membership only).
// ---------------------------------------------------------------------

func (s *setState) EmitDelta(dst []uint64, ops []spec.Op) ([]uint64, bool) {
	for _, op := range ops {
		switch op.Code {
		case SetAdd, SetRemove:
		default:
			return dst, false
		}
	}
	return emitKeyed(dst, ops, tagSetDelta, func(k uint64) (uint64, bool) {
		return 0, s.t.has(k)
	}), true
}

func (s *setState) ApplyDelta(w []uint64) error {
	return applyKeyed(w, tagSetDelta, "set",
		func(k, _ uint64) { s.t.put(k, 0) },
		func(k uint64) { s.t.del(k) })
}

// ---------------------------------------------------------------------
// Ordered map — the YCSB object, where delta cuts matter most.
// ---------------------------------------------------------------------

func (s *omapState) EmitDelta(dst []uint64, ops []spec.Op) ([]uint64, bool) {
	for _, op := range ops {
		switch op.Code {
		case OMapPut, OMapDel:
		default:
			return dst, false
		}
	}
	start := len(dst)
	dst = append(dst, tagOMapDelta, 0)
	dst = appendTouchedKeys(dst, ops)
	n := len(dst) - start - 2
	dst[start+1] = uint64(n)
	// The touched keys are sorted, so the walk only moves forward: whole
	// blocks are skipped by a search of maxs, and a block that holds a
	// touched key is merged against them with sequential reads. A cut
	// whose keys sit at both ends of the map reads those two blocks,
	// not the map. (Per-key binary search of the whole state here cost
	// ~90µs per cut on zipfian windows — most of the delta path's CPU.)
	bi, pos := 0, 0
	for _, k := range dst[start+2 : start+2+n] {
		if bi < len(s.maxs) && s.maxs[bi] < k {
			bi, pos = bi+1+lowerBound(s.maxs[bi+1:], k), 0
		}
		if bi == len(s.blocks) {
			dst = append(dst, deltaAbsent, 0)
			continue
		}
		b := &s.blocks[bi]
		for b.keys[pos] < k { // stops by the block's last key, which is >= k
			pos++
		}
		if b.keys[pos] == k {
			dst = append(dst, deltaPresent, b.vals[pos])
		} else {
			dst = append(dst, deltaAbsent, 0)
		}
	}
	return dst, true
}

func (s *omapState) ApplyDelta(w []uint64) error {
	return applyKeyed(w, tagOMapDelta, "orderedmap",
		func(k, v uint64) {
			s.Apply(spec.Op{Code: OMapPut, Args: [3]uint64{k, v}})
		},
		func(k uint64) {
			s.Apply(spec.Op{Code: OMapDel, Args: [3]uint64{k}})
		})
}

// Compile-time checks: emitters and appliers always ship as a pair.
var (
	_ spec.DeltaEmitter = (*mapState)(nil)
	_ spec.DeltaApplier = (*mapState)(nil)
	_ spec.DeltaEmitter = (*setState)(nil)
	_ spec.DeltaApplier = (*setState)(nil)
	_ spec.DeltaEmitter = (*omapState)(nil)
	_ spec.DeltaApplier = (*omapState)(nil)
)
