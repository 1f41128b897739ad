// Package linepadb is the linepad NEGATIVE fixture: a striped-slot shape
// — three solo hot lines, one deliberately shared counter line, a
// padded payload tail — plus an unannotated struct the analyzer must
// ignore. No diagnostics expected.
package linepadb

type state interface{ Read(uint64) uint64 }

//onll:linepadded
type stripe struct {
	ver       uint64
	_         [7]uint64
	frontier  uint64
	_         [7]uint64
	hint      uint64
	_         [7]uint64
	publishes uint64
	stamps    uint64
	serves    uint64
	_         [5]uint64
	st        state
	idx       uint64
	seqs      []uint64
	epoch     uint64
	_         [1]uint64
}

// unpadded is not annotated: no layout opinion applies.
type unpadded struct {
	a uint64
	b byte
}
