package objects

import "slices"

// denseTable is an open-addressed hash table from uint64 keys to uint64
// values, the allocation-free replacement for the Go maps that used to
// back the map and set states: steady-state Apply paths (get, put over
// an existing key, delete) allocate nothing, and inserts allocate only
// on amortized growth. Linear probing with tombstones; a power-of-
// two capacity; rehash drops tombstones. Values may be disabled (vals
// nil) for set-shaped objects.
//
// The table is an in-memory spec state, not a persistent structure: its
// snapshot wire format is the same sorted key(/value) sequence the map-
// backed states produced, so snapshot tags and layouts are unchanged.
type denseTable struct {
	meta []uint8 // slot state: dtEmpty, dtFull or dtTomb
	keys []uint64
	vals []uint64 // nil for keyless (set) tables
	live int      // full slots
	used int      // full + tombstone slots
}

const (
	dtEmpty uint8 = iota
	dtFull
	dtTomb
)

// dtMinCap is the smallest table capacity (power of two).
const dtMinCap = 8

// dtHash mixes k (splitmix64 finalizer) so sequential keys spread.
func dtHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func newDenseTable(hasVals bool, capHint int) *denseTable {
	c := dtMinCap
	for c < capHint*2 {
		c <<= 1
	}
	t := &denseTable{meta: make([]uint8, c), keys: make([]uint64, c)}
	if hasVals {
		t.vals = make([]uint64, c)
	}
	return t
}

// find returns the slot of k if present (ok true) or the slot where k
// would be inserted (first tombstone on the probe path, else the empty
// slot that ended the probe).
func (t *denseTable) find(k uint64) (slot int, ok bool) {
	mask := uint64(len(t.meta) - 1)
	i := dtHash(k) & mask
	insert := -1
	for {
		switch t.meta[i] {
		case dtEmpty:
			if insert >= 0 {
				return insert, false
			}
			return int(i), false
		case dtFull:
			if t.keys[i] == k {
				return int(i), true
			}
		case dtTomb:
			if insert < 0 {
				insert = int(i)
			}
		}
		i = (i + 1) & mask
	}
}

func (t *denseTable) get(k uint64) (uint64, bool) {
	i, ok := t.find(k)
	if !ok {
		return 0, false
	}
	if t.vals == nil {
		return 0, true
	}
	return t.vals[i], true
}

func (t *denseTable) has(k uint64) bool {
	_, ok := t.find(k)
	return ok
}

// put sets k to v, returning the previous value and whether k was
// present. Growth (and tombstone compaction) is amortized.
func (t *denseTable) put(k, v uint64) (old uint64, existed bool) {
	i, ok := t.find(k)
	if ok {
		if t.vals == nil {
			return 0, true
		}
		old = t.vals[i]
		t.vals[i] = v
		return old, true
	}
	if t.meta[i] == dtEmpty {
		t.used++
	}
	t.meta[i] = dtFull
	t.keys[i] = k
	if t.vals != nil {
		t.vals[i] = v
	}
	t.live++
	// Keep the probe load (full + tombstones) under 3/4.
	if t.used*4 >= len(t.meta)*3 {
		t.rehash()
	}
	return 0, false
}

// del removes k, returning its value and whether it was present.
func (t *denseTable) del(k uint64) (old uint64, existed bool) {
	i, ok := t.find(k)
	if !ok {
		return 0, false
	}
	if t.vals != nil {
		old = t.vals[i]
	}
	t.meta[i] = dtTomb
	t.live--
	return old, true
}

// rehash rebuilds the table without tombstones, doubling capacity when
// the live load justifies it.
func (t *denseTable) rehash() {
	c := len(t.meta)
	if t.live*2 >= c {
		c <<= 1
	}
	ok, ov := t.keys, t.vals
	om := t.meta
	t.meta = make([]uint8, c)
	t.keys = make([]uint64, c)
	if ov != nil {
		t.vals = make([]uint64, c)
	}
	t.used, t.live = 0, 0
	for i, m := range om {
		if m != dtFull {
			continue
		}
		if ov != nil {
			t.put(ok[i], ov[i])
		} else {
			t.put(ok[i], 0)
		}
	}
}

// reset empties the table in place, keeping capacity (Restore reuses it).
func (t *denseTable) reset(hasVals bool, capHint int) {
	need := dtMinCap
	for need < capHint*2 {
		need <<= 1
	}
	if need > len(t.meta) || (hasVals && t.vals == nil) {
		t.meta = make([]uint8, need)
		t.keys = make([]uint64, need)
		if hasVals {
			t.vals = make([]uint64, need)
		}
	} else {
		clear(t.meta)
	}
	if !hasVals {
		t.vals = nil
	}
	t.live, t.used = 0, 0
}

// copyFrom replaces the table contents with src's, reusing the
// receiver's arrays when they are already the right shape, so copying
// the same table layout back and forth does not allocate.
func (t *denseTable) copyFrom(src *denseTable) {
	if cap(t.meta) < len(src.meta) {
		t.meta = make([]uint8, len(src.meta))
	}
	t.meta = t.meta[:len(src.meta)]
	copy(t.meta, src.meta)
	t.keys = reuse(t.keys, src.keys)
	if src.vals == nil {
		t.vals = nil
	} else {
		t.vals = reuse(t.vals, src.vals)
	}
	t.live, t.used = src.live, src.used
}

// clone returns an independent deep copy.
func (t *denseTable) clone() *denseTable {
	c := &denseTable{
		meta: append([]uint8(nil), t.meta...),
		keys: append([]uint64(nil), t.keys...),
		live: t.live, used: t.used,
	}
	if t.vals != nil {
		c.vals = append([]uint64(nil), t.vals...)
	}
	return c
}

// appendSnapshot appends the table contents to out in ascending key
// order — the exact wire format the map-backed states produced — and
// returns the extended slice, allocating nothing beyond out's growth.
// With values enabled each key is followed by its value.
func (t *denseTable) appendSnapshot(out []uint64) []uint64 {
	start := len(out)
	for i, m := range t.meta {
		if m == dtFull {
			out = append(out, t.keys[i])
		}
	}
	ks := out[start:]
	slices.Sort(ks)
	if t.vals == nil {
		return out
	}
	// Interleave values in place: duplicate the sorted keys, then build
	// pair i at out[start+2i] while reading key i from the second copy at
	// out[start+n+i] — the write frontier (2i+1) never passes the read
	// position (n+i) until the read is done.
	out = append(out, ks...)
	for i, n := 0, len(ks); i < n; i++ {
		k := out[start+n+i]
		v, _ := t.get(k)
		out[start+2*i] = k
		out[start+2*i+1] = v
	}
	return out
}
