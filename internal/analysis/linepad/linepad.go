// Package linepad is the fieldalignment check for the repo's
// line-padded hot structs (pmem's pidPending, one write-back set per
// process): structs annotated //onll:linepadded group their fields into
// 64-byte cache lines with blank pad arrays ("_ [N]uint64"), and the
// analyzer recomputes the layout with the target platform's sizes to
// verify the grouping, so a hand-counted pad cannot drift when a field
// is added.
//
// A "padded group" is a maximal run of live fields followed by one or
// more blank pads. Each padded group must start and end on a 64-byte
// boundary and its live fields must fit in a single line (fields that
// deliberately share a line simply form one group). The struct's total
// size must also be a multiple of 64: these structs are used as array
// elements (pidPending sits in a [MaxPids] array), and a ragged tail
// would put the next element's hot line on this element's payload.
package linepad

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

const lineSize = 64 // must match pmem.LineSize

var Analyzer = &analysis.Analyzer{
	Name: "linepad",
	Doc:  "//onll:linepadded structs must group fields into whole 64-byte cache lines",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, ok := pass.Ann.Type(ts, "linepadded"); !ok {
					continue
				}
				checkStruct(pass, ts)
			}
		}
	}
	return nil
}

func checkStruct(pass *analysis.Pass, ts *ast.TypeSpec) {
	obj := pass.TypesInfo.Defs[ts.Name]
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ts.Pos(), "//onll:linepadded on non-struct type %s", ts.Name.Name)
		return
	}
	n := st.NumFields()
	if n == 0 {
		return
	}
	fields := make([]*types.Var, n)
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offsets := pass.Sizes.Offsetsof(fields)
	total := pass.Sizes.Sizeof(obj.Type())
	pos := fieldPositions(ts, n)

	// Split into groups: live fields up to and including their trailing
	// pads. A group with no pads is only legal as the struct tail if it
	// still honors the line math (caught by the total-size check plus
	// the previous group's end check).
	i := 0
	for i < n {
		start := i
		for i < n && fields[i].Name() != "_" {
			i++
		}
		lastLive := i - 1
		for i < n && fields[i].Name() == "_" {
			i++
		}
		hasPad := fields[i-1].Name() == "_"
		groupStart := offsets[start]
		groupEnd := total
		if i < n {
			groupEnd = offsets[i]
		}
		if groupStart%lineSize != 0 {
			pass.Reportf(pos[start], "%s.%s: padded group starts at offset %d, not on a %d-byte line boundary", ts.Name.Name, fields[start].Name(), groupStart, lineSize)
		}
		if hasPad && groupEnd%lineSize != 0 {
			pass.Reportf(pos[start], "%s.%s: padded group ends at offset %d, not on a %d-byte line boundary (pad is the wrong size)", ts.Name.Name, fields[start].Name(), groupEnd, lineSize)
		}
		if hasPad && lastLive >= start {
			liveEnd := offsets[lastLive] + pass.Sizes.Sizeof(fields[lastLive].Type())
			if liveEnd-groupStart > lineSize {
				pass.Reportf(pos[start], "%s.%s: live fields span %d bytes, more than one %d-byte line", ts.Name.Name, fields[start].Name(), liveEnd-groupStart, lineSize)
			}
		}
	}
	if total%lineSize != 0 {
		pass.Reportf(ts.Pos(), "%s: total size %d is not a multiple of %d: array elements will share cache lines (pad the tail)", ts.Name.Name, total, lineSize)
	}
}

// fieldPositions flattens the AST field list (one ast.Field may declare
// several names) to align with types.Struct field indices.
func fieldPositions(ts *ast.TypeSpec, n int) []token.Pos {
	pos := make([]token.Pos, 0, n)
	if stype, ok := ts.Type.(*ast.StructType); ok {
		for _, f := range stype.Fields.List {
			if len(f.Names) == 0 {
				pos = append(pos, f.Pos()) // embedded
				continue
			}
			for _, name := range f.Names {
				pos = append(pos, name.Pos())
			}
		}
	}
	for len(pos) < n {
		pos = append(pos, ts.Pos())
	}
	return pos
}
