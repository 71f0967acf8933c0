// Package parshare guards the invariant behind the byte-identical
// equivalence matrix: closures dispatched across workers by internal/par
// (and any wrapper whose name contains "foreach") may only write captured
// state in ways that cannot race.
//
// A dispatch site is a call whose callee name contains "foreach" (any
// case) and whose final argument is a function literal of shape
// func(i int) error — the worker-index signature par.ForEach hands each
// worker. Inside that literal, writes to variables captured from the
// enclosing scope are checked:
//
//   - a plain assignment to a captured variable always races;
//   - a captured map write races unless a captured sync.Mutex is held at
//     the write (maps are never index-disjoint);
//   - a captured slice/array element write is allowed only when the index
//     depends on the worker index (directly or through locals derived from
//     it) or a mutex is held — anything else lets two workers collide on
//     one slot;
//   - field writes and pointer stores into captured values race unless an
//     index on the access path is worker-disjoint or a mutex is held.
//
// Locals declared inside the literal are per-invocation and always fine;
// so is everything under a held mutex (lock tracking is the same
// source-order approximation locksafe uses).
package parshare

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the parallel-dispatch write-disjointness check.
var Analyzer = &framework.Analyzer{
	Name: "parshare",
	Doc: "closures dispatched by par.ForEach-style drivers may write captured " +
		"slices/maps only through worker-disjoint indices, per-worker buffers, or a mutex",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit := dispatchedLit(pass, call)
			if lit == nil {
				return true
			}
			checkLit(pass, lit)
			return true
		})
	}
	return nil
}

// dispatchedLit returns the worker closure when call is a parallel
// dispatch: callee named like ForEach and a trailing func(i int) error
// literal.
func dispatchedLit(pass *framework.Pass, call *ast.CallExpr) *ast.FuncLit {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return nil
	}
	if !strings.Contains(strings.ToLower(name), "foreach") {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return nil
	}
	sig, ok := pass.TypeOf(lit).(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return nil
	}
	basic, ok := sig.Params().At(0).Type().(*types.Basic)
	if !ok || basic.Kind() != types.Int {
		return nil
	}
	return lit
}

func checkLit(pass *framework.Pass, lit *ast.FuncLit) {
	free := framework.FreeVars(pass.TypesInfo, lit)
	captured := make(map[types.Object]bool, len(free))
	for v := range free {
		captured[v] = true
	}
	w := &walker{
		pass:     pass,
		captured: captured,
		derived:  derivedFromIndex(pass, lit),
	}
	w.stmts(lit.Body.List, make(map[string]bool))
}

// derivedFromIndex returns the worker-index parameter plus every local
// whose initializer mentions it (transitively): the set of expressions that
// make a slice index worker-disjoint.
func derivedFromIndex(pass *framework.Pass, lit *ast.FuncLit) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				derived[obj] = true
			}
		}
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && derived[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.ObjectOf(id)
					if obj == nil || derived[obj] {
						continue
					}
					// Both forms: x := f(i) (one rhs for all lhs) and
					// positional x, y := i, j.
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if mentions(rhs) {
						derived[obj] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				if n.X == nil || !mentions(n.X) {
					return true
				}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := pass.ObjectOf(id); obj != nil && !derived[obj] {
							derived[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return derived
}

type walker struct {
	pass     *framework.Pass
	captured map[types.Object]bool
	derived  map[types.Object]bool
}

// mutexOp classifies a sync.Mutex/RWMutex lock or unlock call.
func (w *walker) mutexOp(call *ast.CallExpr) (key string, lock, unlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := w.pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", false, false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, false
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// stmts threads the held-lock set through a statement list in source order
// (the locksafe approximation: good enough for lock/unlock bracketing).
func (w *walker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, lock, unlock := w.mutexOp(call); lock || unlock {
				if lock {
					held[key] = true
				} else {
					delete(held, key)
				}
				return
			}
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the section open to function end; a
		// deferred closure is checked under the current held set.
		if _, _, unlock := w.mutexOp(s.Call); unlock {
			return
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, copyHeld(held))
		}
	case *ast.AssignStmt:
		if len(held) == 0 {
			for _, lhs := range s.Lhs {
				w.checkWrite(lhs, held)
			}
		}
	case *ast.IncDecStmt:
		if len(held) == 0 {
			w.checkWrite(s.X, held)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
		return
	case *ast.RangeStmt:
		w.stmts(s.Body.List, copyHeld(held))
		return
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
		return
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A goroutine spawned inside the worker shares nothing with the
			// held set (it runs concurrently with the unlock).
			w.stmts(lit.Body.List, make(map[string]bool))
		}
		return
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// checkWrite classifies one assignment target reached with no lock held.
func (w *walker) checkWrite(lhs ast.Expr, held map[string]bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if w.isCaptured(e) {
			w.pass.Reportf(e.Pos(), "worker closure writes captured variable %s; every worker shares it — use a local, an indexed slot, or a mutex", e.Name)
		}
	case *ast.IndexExpr:
		root := rootIdent(e.X)
		if root == nil || !w.isCaptured(root) {
			return
		}
		baseType := w.pass.TypeOf(e.X)
		if baseType != nil {
			if _, isMap := baseType.Underlying().(*types.Map); isMap {
				w.pass.Reportf(e.Pos(), "worker closure writes captured map %s without a lock; map writes are never index-disjoint", root.Name)
				return
			}
		}
		if !w.indexIsDisjoint(e.Index) {
			w.pass.Reportf(e.Pos(), "worker closure writes captured slice %s at an index that does not depend on the worker index; workers may collide — index by the worker index or use per-worker buffers", root.Name)
		}
	case *ast.SelectorExpr:
		switch x := ast.Unparen(e.X).(type) {
		case *ast.Ident:
			if w.isCaptured(x) {
				w.pass.Reportf(e.Pos(), "worker closure writes field %s of captured %s; every worker shares it — guard it with a mutex or write into an indexed slot", e.Sel.Name, x.Name)
			}
		default:
			w.checkWrite(x, held)
		}
	case *ast.StarExpr:
		if root := rootIdent(e.X); root != nil && w.isCaptured(root) {
			w.pass.Reportf(e.Pos(), "worker closure stores through captured pointer %s; every worker shares the target", root.Name)
		}
	}
}

func (w *walker) isCaptured(id *ast.Ident) bool {
	obj := w.pass.ObjectOf(id)
	return obj != nil && w.captured[obj]
}

// indexIsDisjoint reports whether the index expression mentions the worker
// index or a local derived from it.
func (w *walker) indexIsDisjoint(idx ast.Expr) bool {
	found := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil && w.derived[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent peels selectors, indexes and derefs down to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
