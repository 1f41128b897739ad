// Package analysis is the repo's static-enforcement layer: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver shape (Analyzer, Pass, diagnostics, cross-package facts) plus
// the ONLL-specific analyzers built on it (subpackages fencepath,
// atomicmix, hotpath, linepad) and the cmd/onllvet front end that runs
// them over the module.
//
// x/tools itself is deliberately not imported — the module is
// stdlib-only — so the loader resolves dependency types from the
// compiler's export data via `go list -export` (load.go) and the driver
// (driver.go) replays the x/tools contract: packages are analyzed in
// dependency order, analyzers export string-keyed facts about package
// objects, and downstream packages import those facts instead of
// re-analyzing their dependencies' bodies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named check. Run inspects a single package through
// the Pass and reports diagnostics; cross-package state flows only
// through facts.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Message  string
	Position token.Position
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Ann holds the package's parsed //onll: annotations (anno.go).
	Ann *Annotations
	// Sizes is the target platform's layout model (linepad needs real
	// field offsets, not just types).
	Sizes types.Sizes

	// imports resolves a fact exported by a dependency package under
	// this analyzer's namespace; export records a fact about an object
	// of this package for dependents. Keys must be globally unique —
	// use FuncKey/FieldKey so they embed the package path.
	imports func(key string) (string, bool)
	export  map[string]string
	diags   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Position: p.Fset.Position(pos),
	})
}

// ExportFact publishes a fact for packages that import this one.
func (p *Pass) ExportFact(key, value string) { p.export[key] = value }

// ImportFact resolves a fact exported by an already-analyzed package
// (or earlier by this one) under the same analyzer.
func (p *Pass) ImportFact(key string) (string, bool) {
	if v, ok := p.export[key]; ok {
		return v, true
	}
	return p.imports(key)
}

// FuncKey is the canonical fact key for a function or method object:
// types.Func.FullName, e.g. "repro/internal/pmem.(*Pool).Fence" or
// "(repro/internal/trace.Interface).Insert" for interface methods. The
// key is a plain string so identity survives the source-vs-export-data
// object split (a package analyzed from source and the same package
// imported by a dependent have distinct *types.Func pointers).
func FuncKey(fn *types.Func) string { return fn.FullName() }

// FieldKey is the fact key for a named struct's field:
// "pkgpath.StructName.FieldName". The owning struct name is not
// recoverable from the field object alone, so callers pass it.
func FieldKey(pkgPath, structName, fieldName string) string {
	return pkgPath + "." + structName + "." + fieldName
}

// CalleeOf resolves a call expression to the function or method object
// it invokes, or nil for builtins, conversions, and dynamic calls
// through function values. Interface method calls resolve to the
// interface's *types.Func — fact-keyed like any other function.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
