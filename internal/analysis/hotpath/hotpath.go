// Package hotpath checks functions annotated //onll:hotpath — the
// update/read/Stage paths and trace walks whose per-op cost the repo's
// benchmarks pin. Inside them it forbids, lexically and directly (no
// transitive propagation — allocation pins and the other analyzers
// cover callees):
//
//   - allocations: make, new, slice/map composite literals, closures
//     (escape: //onll:allocok(reason) on the line);
//   - clock reads: time.Now, time.Since — the server's timing capture
//     reads the clock only behind its armed-ring gate, and an un-gated
//     read is exactly the class the PR 9 timing audit chased by hand
//     (escape: //onll:clockok(reason));
//   - mutex acquisition: sync.Mutex/RWMutex Lock/RLock — the pool's
//     striped shard locks are the one allowed case and each takes a
//     line escape naming why (//onll:lockok(reason));
//   - goroutine launches and channel operations (escape:
//     //onll:chanok(reason) — the batcher's ack delivery is the one
//     structural case);
//   - unledgered atomic writes: every sync/atomic Store, Swap,
//     CompareAndSwap, Add, And or Or, typed method or function form,
//     must carry //onll:barrier(partner) naming the load or check it
//     orders against. On amd64 each is a locked instruction or an XCHG,
//     a full barrier on the path the benchmarks time, so each kept one
//     states what it is for, and one that names nothing is a candidate
//     for a plain store.
//
// append and struct-valued composite literals are deliberately NOT
// flagged: append-into-retained-storage is the repo's steady-state-
// zero-alloc idiom, stack struct literals are free, and the runtime
// allocs/op pins catch regressions in both.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//onll:hotpath functions must not allocate, read the clock un-gated, take non-allowlisted locks, or write atomics without naming a partner",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.Ann.Func(fd, "hotpath"); !ok {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, escape, format string, args ...any) {
		if _, ok := pass.Ann.Line(pos, escape); ok {
			return
		}
		args = append(args, fd.Name.Name, escape)
		pass.Reportf(pos, format+" in hotpath function %s (annotate //onll:%s(reason) if deliberate)", args...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			report(e.Pos(), "allocok", "closure allocates")
			return false // the literal is the violation; its body runs elsewhere
		case *ast.GoStmt:
			report(e.Pos(), "chanok", "goroutine launch")
		case *ast.SendStmt:
			report(e.Pos(), "chanok", "channel send")
		case *ast.SelectStmt:
			report(e.Pos(), "chanok", "select")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				report(e.Pos(), "chanok", "channel receive")
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(e).Underlying().(type) {
			case *types.Slice, *types.Map:
				report(e.Pos(), "allocok", "slice/map literal allocates")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						report(e.Pos(), "allocok", b.Name()+" allocates")
					}
					return true
				}
			}
			fn := analysis.CalleeOf(pass.TypesInfo, e)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch full := fn.FullName(); full {
			case "time.Now", "time.Since":
				report(e.Pos(), "clockok", "un-gated clock read (%s)", full)
			case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
				report(e.Pos(), "lockok", "lock acquisition (%s)", full)
			}
			if fn.Pkg().Path() == "sync/atomic" && isAtomicWrite(fn.Name()) {
				if ann, ok := pass.Ann.Line(e.Pos(), "barrier"); !ok || ann.Arg == "" {
					pass.Reportf(e.Pos(), "atomic write (%s) in hotpath function %s names no partner (annotate //onll:barrier(partner) with the load or check it orders against)", fn.FullName(), fd.Name.Name)
				}
			}
		}
		return true
	})
}

// isAtomicWrite reports whether a sync/atomic function or method name
// writes: Store, Swap, CompareAndSwap, Add, And and Or, with or without
// a type suffix (StoreUint32, AddInt64, ...). Nothing else in the
// package starts with those prefixes.
func isAtomicWrite(name string) bool {
	for _, p := range []string{"Store", "Swap", "CompareAndSwap", "Add", "And", "Or"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
