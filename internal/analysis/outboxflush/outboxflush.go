// Package outboxflush enforces the one-doorbell-per-iteration contract on
// server loops (paper §IV-A): a server stages its engine's output onto its
// wiring.Edge values during an iteration and flushes each edge once at the
// iteration boundary. A loop type that pushes onto an edge field but never
// reaches Flush (or Drop) from its Poll method leaves requests parked
// forever — the peer's doorbell never rings.
//
// Enforcement is per receiver type: for every named type with a
// Poll(time.Time) bool method, every *wiring.Edge field (including slice
// and map fields of edges) that any method of the package pushes onto must
// be flushed by some function reachable from Poll. Pushes and flushes
// through local aliases, range variables, and *wiring.Edge parameters of
// same-package helpers are followed.
package outboxflush

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"newtos/internal/analysis"
)

const wiringPath = "newtos/internal/wiring"

// Analyzer reports edge fields that are staged onto but not flushed from
// the owning type's Poll method.
var Analyzer = &analysis.Analyzer{
	Name: "outboxflush",
	Doc: "a server loop that stages onto a wiring.Edge must call " +
		"Flush on it on the Poll path",
	Run: run,
}

// summary is what one function does to edges, directly or via callees.
type summary struct {
	decl        *ast.FuncDecl
	pushFields  map[*types.Var]token.Pos
	flushFields map[*types.Var]bool
	pushParams  map[int]bool
	flushParams map[int]bool
	calls       []*ast.CallExpr
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Map every function object declared in this package to its summary.
	sums := map[*types.Func]*summary{}
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sums[fn] = &summary{
				decl:        fd,
				pushFields:  map[*types.Var]token.Pos{},
				flushFields: map[*types.Var]bool{},
				pushParams:  map[int]bool{},
				flushParams: map[int]bool{},
			}
			order = append(order, fn)
		}
	}

	for _, fn := range order {
		fillDirect(info, fn, sums[fn])
	}
	propagate(info, order, sums)

	// For every named type with a Poll loop: compare what the package
	// stages onto its edge fields against what Poll's call tree flushes.
	for _, fn := range order {
		if fn.Name() != "Poll" || !isPollSig(fn) {
			continue
		}
		recv := analysis.NamedOf(fn.Type().(*types.Signature).Recv().Type())
		if recv == nil {
			continue
		}
		pushed := map[*types.Var]token.Pos{}
		for _, g := range order {
			for f, pos := range sums[g].pushFields {
				if fieldOwner(f, recv) {
					if old, ok := pushed[f]; !ok || pos < old {
						pushed[f] = pos
					}
				}
			}
		}
		if len(pushed) == 0 {
			continue
		}
		flushed := map[*types.Var]bool{}
		for g := range reachable(info, fn, sums) {
			for f := range sums[g].flushFields {
				flushed[f] = true
			}
		}
		var missing []*types.Var
		for f := range pushed {
			if !flushed[f] {
				missing = append(missing, f)
			}
		}
		sort.Slice(missing, func(i, j int) bool { return pushed[missing[i]] < pushed[missing[j]] })
		for _, f := range missing {
			pass.Report(analysis.Diagnostic{
				Pos: pushed[f],
				Message: "edge " + f.Name() + " is staged onto (Push) but never " +
					"flushed on any path from (*" + recv.Obj().Name() + ").Poll — " +
					"Push and Flush in the same iteration",
			})
		}
	}
	return nil
}

// fillDirect records fn's own Push/Flush calls and collects its call sites.
func fillDirect(info *types.Info, fn *types.Func, s *summary) {
	params := paramVars(fn)
	aliases := buildAliases(info, s.decl)
	ast.Inspect(s.decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		s.calls = append(s.calls, call)
		callee := analysis.Callee(info, call)
		if callee == nil {
			return true
		}
		isPush := analysis.IsMethod(callee, wiringPath, "Edge", "Push")
		isFlush := analysis.IsMethod(callee, wiringPath, "Edge", "Flush") ||
			analysis.IsMethod(callee, wiringPath, "Edge", "Drop")
		if !isPush && !isFlush {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field, param := attribute(info, sel.X, params, aliases)
		switch {
		case field != nil && isPush:
			if _, seen := s.pushFields[field]; !seen {
				s.pushFields[field] = call.Pos()
			}
		case field != nil:
			s.flushFields[field] = true
		case param >= 0 && isPush:
			s.pushParams[param] = true
		case param >= 0:
			s.flushParams[param] = true
		}
		return true
	})
}

// propagate folds callee effects into callers until a fixpoint: passing an
// edge field (or own parameter) to a helper that pushes/flushes its
// parameter is a push/flush by the caller.
func propagate(info *types.Info, order []*types.Func, sums map[*types.Func]*summary) {
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			s := sums[fn]
			params := paramVars(fn)
			aliases := buildAliases(info, s.decl)
			for _, call := range s.calls {
				callee := analysis.Callee(info, call)
				cs, ok := sums[callee]
				if !ok {
					continue
				}
				for j, arg := range call.Args {
					if !cs.pushParams[j] && !cs.flushParams[j] {
						continue
					}
					field, param := attribute(info, arg, params, aliases)
					if cs.pushParams[j] {
						if field != nil {
							if _, seen := s.pushFields[field]; !seen {
								s.pushFields[field] = arg.Pos()
								changed = true
							}
						} else if param >= 0 && !s.pushParams[param] {
							s.pushParams[param] = true
							changed = true
						}
					}
					if cs.flushParams[j] {
						if field != nil && !s.flushFields[field] {
							s.flushFields[field] = true
							changed = true
						} else if param >= 0 && !s.flushParams[param] {
							s.flushParams[param] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// reachable returns the same-package functions reachable from fn through
// static calls (closure bodies count as part of their enclosing function).
func reachable(info *types.Info, fn *types.Func, sums map[*types.Func]*summary) map[*types.Func]bool {
	seen := map[*types.Func]bool{fn: true}
	work := []*types.Func{fn}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, call := range sums[cur].calls {
			callee := analysis.Callee(info, call)
			if _, ok := sums[callee]; ok && !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
		}
	}
	return seen
}

// attribute resolves an expression to the edge field it denotes, or the
// function parameter index it denotes, or (nil, -1). It sees through
// indexing (s.boxes[k]) and the local aliases collected by buildAliases.
func attribute(info *types.Info, e ast.Expr, params map[*types.Var]int, aliases map[*types.Var]*types.Var) (*types.Var, int) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			return nil, -1
		}
		if f, ok := aliases[v]; ok {
			return f, -1
		}
		if i, ok := params[v]; ok {
			return nil, i
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if f, ok := sel.Obj().(*types.Var); ok && isEdgeish(f.Type()) {
				return f, -1
			}
		}
	case *ast.IndexExpr:
		return attribute(info, e.X, params, aliases)
	}
	return nil, -1
}

// buildAliases maps local variables to the edge fields they alias via
// simple assignment (box := s.f, box := s.f[k]) or range (for _, box :=
// range s.boxes).
func buildAliases(info *types.Info, decl *ast.FuncDecl) map[*types.Var]*types.Var {
	aliases := map[*types.Var]*types.Var{}
	none := map[*types.Var]int{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := info.Defs[id].(*types.Var)
				if v == nil {
					v, _ = info.Uses[id].(*types.Var)
				}
				if v == nil || !isEdgeish(v.Type()) {
					continue
				}
				if f, _ := attribute(info, n.Rhs[i], none, aliases); f != nil {
					aliases[v] = f
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			id, ok := n.Value.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := info.Defs[id].(*types.Var)
			if v == nil || !isEdgeish(v.Type()) {
				return true
			}
			if f, _ := attribute(info, n.X, none, aliases); f != nil {
				aliases[v] = f
			}
		}
		return true
	})
	return aliases
}

// paramVars maps fn's *wiring.Edge-ish parameters to their indexes.
func paramVars(fn *types.Func) map[*types.Var]int {
	out := map[*types.Var]int{}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isEdgeish(p.Type()) {
			out[p] = i
		}
	}
	return out
}

// isEdgeish reports whether t is *wiring.Edge or a container of them.
func isEdgeish(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return analysis.IsNamedType(t, wiringPath, "Edge")
	case *types.Slice:
		return isEdgeish(t.Elem())
	case *types.Array:
		return isEdgeish(t.Elem())
	case *types.Map:
		return isEdgeish(t.Elem())
	case *types.Named:
		return analysis.IsNamedType(t, wiringPath, "Edge")
	}
	return false
}

// isPollSig reports whether fn has the loop signature func(time.Time) bool.
func isPollSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !analysis.IsNamedType(sig.Params().At(0).Type(), "time", "Time") {
		return false
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// fieldOwner reports whether field f is declared in named struct type recv.
func fieldOwner(f *types.Var, recv *types.Named) bool {
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}
