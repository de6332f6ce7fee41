// Package atomicmix enforces the all-or-nothing atomicity contract on
// struct fields: a field that is accessed through sync/atomic anywhere
// (atomic.AddUint64(&s.n, 1), atomic.LoadInt64(&s.t), ...) must be accessed
// through sync/atomic everywhere. A single plain read racing an atomic
// writer is still a data race — the Edge.Dropped / trace counter pattern
// this stack uses for cross-goroutine observability makes the mix easy to
// introduce and -race unlikely to catch (observers run rarely).
//
// Composite-literal initialization is exempt: building a value before it is
// shared is the one idiomatically-safe plain write.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"newtos/internal/analysis"
	"newtos/internal/analysis/loader"
)

// Analyzer reports struct fields accessed both atomically and plainly.
// It is global: the atomic access and the plain access frequently live in
// different packages (counter owner vs observer).
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "a struct field accessed via sync/atomic anywhere must be " +
		"accessed atomically everywhere",
	Global: true,
	Run:    run,
}

type access struct {
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	atomicUses := map[*types.Var][]access{} // field -> atomic access sites
	plainUses := map[*types.Var][]access{}  // field -> plain access sites

	for _, pkg := range pass.Program {
		collect(pkg, atomicUses, plainUses)
	}

	var fields []*types.Var
	for f := range atomicUses {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, f := range fields {
		for _, p := range plainUses[f] {
			pass.Report(analysis.Diagnostic{
				Pos: p.pos,
				Message: "field " + f.Name() + " is accessed with sync/atomic " +
					"elsewhere; this plain access races it (use atomic, or an " +
					"atomic.* typed field)",
			})
		}
	}
	return nil
}

// collect records, for every field selection in pkg, whether it is the
// &-operand of a sync/atomic call (atomic) or anything else (plain).
func collect(pkg *loader.Package, atomicUses, plainUses map[*types.Var][]access) {
	info := pkg.Info

	// Selector expressions consumed as &x.f by a sync/atomic call.
	atomicOperand := map[*ast.SelectorExpr]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
					atomicOperand[sel] = true
				}
			}
			return true
		})
	}

	// Composite-literal initialization (S{n: 0}) is exempt by construction:
	// literal keys are plain identifiers, never field selections, so they
	// never reach the Selections map below.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field, ok := s.Obj().(*types.Var)
			if !ok || !field.IsField() {
				return true
			}
			if !isSyncable(field.Type()) {
				return true
			}
			if atomicOperand[sel] {
				atomicUses[field] = append(atomicUses[field], access{pos: sel.Pos()})
			} else {
				plainUses[field] = append(plainUses[field], access{pos: sel.Pos()})
			}
			return true
		})
	}
}

// isSyncable reports whether t is a type the sync/atomic functions operate
// on (the atomic.Int64-style wrapper types are safe by construction and
// never appear here: their fields are selected via methods).
func isSyncable(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr:
		return true
	}
	return false
}
