// Package linepada is the linepad POSITIVE fixture: a short pad, an
// unaligned trailing group, an overfull live run, and the ragged-tail
// case (array elements sharing lines).
package linepada

//onll:linepadded
type bad struct {
	ver  uint64
	_    [7]uint64
	a    uint64 // want `bad\.a: padded group ends at offset 120`
	b    uint64
	_    [5]uint64
	tail uint64 // want `bad\.tail: padded group starts at offset 120`
}

//onll:linepadded
type ragged struct { // want `ragged: total size 72 is not a multiple of 64`
	ver uint64
	_   [7]uint64
	idx uint64
}

//onll:linepadded
type overfull struct {
	a, b, c, d, e, f, g, h, i uint64 // want `overfull\.a: live fields span 72 bytes`
	_                         [7]uint64
}
