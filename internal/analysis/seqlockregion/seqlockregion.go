// Package seqlockregion checks the stripe-slot discipline of the
// published-view fast path: between a seqlock acquire (the odd-version
// CAS, //onll:seqlock(acquire)) and the covering release
// (//onll:seqlock(release)), the holder must not allocate, touch
// channels, start goroutines, or call anything that may block — a
// suspended holder merely disables the stripe (contenders never wait),
// but a blocked or GC-stalled one extends that window arbitrarily —
// and every return path must release first, or the version is left odd
// and the stripe is dead for the rest of the run (the bug class PR 5's
// crash hygiene patched reactively).
//
// The analysis is a structural walk over each function's statements,
// tracking whether the lock is held along the way. It understands the
// repo's region idioms: the `v, ok := p.tryAcquire(); if !ok { return }`
// bailout, release-then-return sequences, both branches of an if
// releasing, and helpers that release internally when they are
// annotated release. Regions are lexical per function: a helper
// called while the lock is held is not re-checked here (installView's
// one-time lazy allocation is deliberate), and a loop body is walked
// once with the state it enters with.
package seqlockregion

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "seqlockregion",
	Doc:  "no allocation, channel ops, blocking calls or held returns inside seqlock stripe regions",
	Run:  run,
}

type lockState int

const (
	free lockState = iota
	held
	// leaked means control merged from held and free paths — any
	// further return is reported as "may leave the version odd".
	leaked
)

type checker struct {
	pass     *analysis.Pass
	acquire  map[*types.Func]bool
	release  map[*types.Func]bool
	okVar    types.Object // the bool result of the last acquire
	reported map[token.Pos]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		acquire:  map[*types.Func]bool{},
		release:  map[*types.Func]bool{},
		reported: map[token.Pos]bool{},
	}
	// Collect the annotated acquire/release functions and export them
	// as facts (callers in other packages inherit the discipline).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, ok := pass.Ann.Func(fd, "seqlock"); ok {
				ann, _ := pass.Ann.Func(fd, "seqlock")
				switch ann.Arg {
				case "acquire":
					c.acquire[obj] = true
					pass.ExportFact(analysis.FuncKey(obj), "acquire")
				case "release":
					c.release[obj] = true
					pass.ExportFact(analysis.FuncKey(obj), "release")
				default:
					pass.Reportf(ann.Pos, "malformed //onll:seqlock(%s): want acquire or release", ann.Arg)
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			// The release helper itself legitimately touches the lock
			// it did not acquire; everyone else is walked.
			if obj != nil && (c.release[obj] || c.acquire[obj]) {
				continue
			}
			c.okVar = nil
			exit := c.walkStmts(fd.Body.List, free)
			// An explicit trailing return was already checked as a
			// return path; this catches falling off the end.
			if exit != free && !terminates(fd.Body.List) {
				c.Reportf(fd.Body.Rbrace, "function ends while holding a seqlock stripe (version left odd)")
			}
		}
	}
	return nil
}

func (c *checker) Reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// role classifies a callee against the local annotation sets and the
// facts of imported packages.
func (c *checker) role(fn *types.Func) string {
	if c.acquire[fn] {
		return "acquire"
	}
	if c.release[fn] {
		return "release"
	}
	if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		if r, ok := c.pass.ImportFact(analysis.FuncKey(fn)); ok {
			return r
		}
	}
	return ""
}

// walkStmts threads the lock state through a statement list.
func (c *checker) walkStmts(stmts []ast.Stmt, st lockState) lockState {
	for _, s := range stmts {
		st = c.walkStmt(s, st)
	}
	return st
}

func (c *checker) walkStmt(s ast.Stmt, st lockState) lockState {
	switch n := s.(type) {
	case *ast.AssignStmt:
		if st != free {
			c.checkRegion(n, st)
		}
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				if fn := analysis.CalleeOf(c.pass.TypesInfo, call); fn != nil {
					switch c.role(fn) {
					case "acquire":
						if len(n.Lhs) == 2 {
							if id, ok := n.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
								c.okVar = c.pass.TypesInfo.Defs[id]
								if c.okVar == nil {
									c.okVar = c.pass.TypesInfo.Uses[id]
								}
							}
						}
						return held
					case "release":
						return free
					}
				}
			}
		}
		return st
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if fn := analysis.CalleeOf(c.pass.TypesInfo, call); fn != nil {
				switch c.role(fn) {
				case "release":
					return free
				case "acquire":
					// Result discarded: the caller can never release.
					c.Reportf(n.Pos(), "seqlock acquire result discarded: the stripe can never be released")
					return held
				}
			}
		}
		if st != free {
			c.checkRegion(n, st)
		}
		return st
	case *ast.ReturnStmt:
		if st != free {
			c.checkRegion(n, st)
			if st == held {
				c.Reportf(n.Pos(), "return while holding a seqlock stripe (version left odd)")
			} else {
				c.Reportf(n.Pos(), "may return while holding a seqlock stripe (merge of held and released paths)")
			}
		}
		return st
	case *ast.IfStmt:
		if n.Init != nil {
			st = c.walkStmt(n.Init, st)
		}
		if st != free {
			c.checkExpr(n.Cond, st)
		}
		// The bailout idiom: `if !ok { ... }` where ok came from the
		// acquire — the then branch runs with the lock NOT held.
		thenEntry, elseEntry := st, st
		if st == held && c.okVar != nil {
			if cond, ok := ast.Unparen(n.Cond).(*ast.UnaryExpr); ok && cond.Op == token.NOT {
				if id, ok := ast.Unparen(cond.X).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.okVar {
					thenEntry = free
				}
			}
			if id, ok := ast.Unparen(n.Cond).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.okVar {
				elseEntry = free
			}
		}
		thenExit := c.walkStmts(n.Body.List, thenEntry)
		thenTerm := terminates(n.Body.List)
		elseExit, elseTerm := elseEntry, false
		if n.Else != nil {
			switch e := n.Else.(type) {
			case *ast.BlockStmt:
				elseExit = c.walkStmts(e.List, elseEntry)
				elseTerm = terminates(e.List)
			case *ast.IfStmt:
				elseExit = c.walkStmt(e, elseEntry)
			}
		}
		switch {
		case thenTerm && elseTerm:
			return st // both branches returned; checked on the way
		case thenTerm:
			return elseExit
		case elseTerm:
			return thenExit
		case thenExit == elseExit:
			return thenExit
		default:
			return leaked
		}
	case *ast.BlockStmt:
		return c.walkStmts(n.List, st)
	case *ast.ForStmt:
		if n.Init != nil {
			st = c.walkStmt(n.Init, st)
		}
		if st != free && n.Cond != nil {
			c.checkExpr(n.Cond, st)
		}
		exit := c.walkStmts(n.Body.List, st)
		if n.Post != nil {
			exit = c.walkStmt(n.Post, exit)
		}
		if exit != st {
			return leaked
		}
		return st
	case *ast.RangeStmt:
		if st != free {
			c.checkExpr(n.X, st)
		}
		exit := c.walkStmts(n.Body.List, st)
		if exit != st {
			return leaked
		}
		return st
	case *ast.SwitchStmt:
		if n.Init != nil {
			st = c.walkStmt(n.Init, st)
		}
		if st != free && n.Tag != nil {
			c.checkExpr(n.Tag, st)
		}
		out := st
		for _, cc := range n.Body.List {
			cl := cc.(*ast.CaseClause)
			exit := c.walkStmts(cl.Body, st)
			if !terminates(cl.Body) && exit != out {
				out = leaked
			}
		}
		return out
	case *ast.LabeledStmt:
		return c.walkStmt(n.Stmt, st)
	case *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt, *ast.GoStmt,
		*ast.DeferStmt, *ast.SelectStmt, *ast.BranchStmt, *ast.EmptyStmt:
		if st != free {
			c.checkRegion(s, st)
		}
		return st
	default:
		if st != free {
			c.checkRegion(s, st)
		}
		return st
	}
}

// terminates reports whether a statement list always leaves the
// function (return or panic as its last statement).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (c *checker) checkExpr(e ast.Expr, st lockState) {
	c.checkNode(e, st)
}

func (c *checker) checkRegion(s ast.Stmt, st lockState) {
	switch s.(type) {
	case *ast.GoStmt:
		c.Reportf(s.Pos(), "goroutine started inside a seqlock region")
		return
	case *ast.SendStmt:
		c.Reportf(s.Pos(), "channel send inside a seqlock region")
		return
	case *ast.SelectStmt:
		c.Reportf(s.Pos(), "select inside a seqlock region")
		return
	}
	c.checkNode(s, st)
}

// checkNode flags forbidden operations in a subtree while the lock is
// held (allocation, channel ops, calls that may block).
func (c *checker) checkNode(root ast.Node, st lockState) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			c.Reportf(e.Pos(), "closure allocated inside a seqlock region")
			return false
		case *ast.SendStmt:
			c.Reportf(e.Pos(), "channel send inside a seqlock region")
		case *ast.SelectStmt:
			c.Reportf(e.Pos(), "select inside a seqlock region")
		case *ast.GoStmt:
			c.Reportf(e.Pos(), "goroutine started inside a seqlock region")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				c.Reportf(e.Pos(), "channel receive inside a seqlock region")
			}
		case *ast.CompositeLit:
			switch c.pass.TypesInfo.TypeOf(e).Underlying().(type) {
			case *types.Slice, *types.Map:
				c.Reportf(e.Pos(), "slice/map literal allocates inside a seqlock region")
			}
		case *ast.CallExpr:
			c.checkCall(e)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				c.Reportf(call.Pos(), "%s allocates inside a seqlock region", b.Name())
			}
			return
		}
	}
	fn := analysis.CalleeOf(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "os", "net", "io", "bufio", "fmt":
		c.Reportf(call.Pos(), "call to %s.%s may block/allocate inside a seqlock region", path, name)
	case "time":
		if name == "Sleep" {
			c.Reportf(call.Pos(), "time.Sleep inside a seqlock region")
		}
	case "sync":
		switch name {
		case "Lock", "RLock", "Wait":
			c.Reportf(call.Pos(), "blocking sync.%s inside a seqlock region", name)
		}
	}
}
