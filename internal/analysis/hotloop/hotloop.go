// Package hotloop keeps the data plane's loop bodies fast and non-blocking.
// Every proc.Service Poll method is a dedicated-core loop body (paper §V:
// components poll with a core to themselves); code reachable from one must
// not:
//
//   - read the clock (time.Now / time.Since / time.Until) — loops receive
//     their timestamp once per iteration as Poll(now) / Tick(now),
//   - format strings with fmt.Sprintf/Sprint/Sprintln — per-packet
//     allocations (panic arguments are exempt: crash paths are not hot),
//   - perform blocking channel operations (send, receive, range,
//     default-less select) — servers never block; staging and doorbells
//     replace channels,
//   - take sync locks (Mutex/RWMutex Lock, WaitGroup/Cond Wait) — engine
//     state is isolated by design and owned by one loop.
//
// Reachability follows static calls, functions and methods named as values
// (callbacks), and calls through an interface method to that method on every
// program type implementing the interface.
//
// Infrastructure packages that emulate shared hardware or kernel machinery
// (shm pools, the storage server, NIC devices, channel/spsc queues, kipc)
// are allowlisted: their short internal locks model cross-process mappings
// and are not engine state. Traversal stops at their boundary.
//
// The mutation that proves it is needed: PF's verdict passing time.Now()
// to the engine instead of the Poll's now. Every tier-1 test still passes;
// the cost is one clock read per packet, which no test measures.
package hotloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"newtos/internal/analysis"
	"newtos/internal/analysis/loader"
)

const procPath = "newtos/internal/proc"

// allowed are the infrastructure packages exempt from hot-loop rules (they
// emulate hardware, shared memory, or the kernel — not stack components).
var allowed = map[string]bool{
	"newtos/internal/shm":     true,
	"newtos/internal/storage": true,
	"newtos/internal/nic":     true,
	"newtos/internal/channel": true,
	"newtos/internal/spsc":    true,
	"newtos/internal/kipc":    true,
	"newtos/internal/trace":   true,
	"newtos/internal/faults":  true,
	"newtos/internal/proc":    true,
}

// Analyzer reports clock reads, string formatting, blocking channel ops and
// lock acquisition in code reachable from server Poll loops.
var Analyzer = &analysis.Analyzer{
	Name: "hotloop",
	Doc: "code reachable from proc.Service Poll loops must not call " +
		"time.Now/fmt.Sprintf, block on channels, or take sync locks",
	Global: true,
	Run:    run,
}

type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *loader.Package
}

func run(pass *analysis.Pass) error {
	decls := map[*types.Func]*funcInfo{}
	var order []*funcInfo
	for _, pkg := range pass.Program {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					fi := &funcInfo{fn: fn, decl: fd, pkg: pkg}
					decls[fn] = fi
					order = append(order, fi)
				}
			}
		}
	}

	service := serviceInterface(pass)
	if service == nil {
		return nil // proc not in scope: nothing to anchor roots on
	}

	// Roots: Poll methods of types implementing proc.Service.
	type item struct {
		fi   *funcInfo
		root string
	}
	var work []item
	seen := map[*types.Func]bool{}
	for _, fi := range order {
		sig := fi.fn.Type().(*types.Signature)
		if fi.fn.Name() != "Poll" || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if !types.Implements(recv, service) && !types.Implements(types.NewPointer(recv), service) {
			continue
		}
		named := analysis.NamedOf(recv)
		if named == nil {
			continue
		}
		root := "(*" + named.Obj().Name() + ").Poll"
		seen[fi.fn] = true
		work = append(work, item{fi: fi, root: root})
	}

	reported := map[token.Pos]bool{}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		checkBody(pass, cur.fi, cur.root, reported)
		for _, callee := range implementations(pass, callees(cur.fi)) {
			fi, ok := decls[callee]
			if !ok || seen[callee] || allowed[fi.pkg.Path] {
				continue
			}
			seen[callee] = true
			work = append(work, item{fi: fi, root: cur.root})
		}
	}
	return nil
}

// callees returns the functions cur calls or names as a value: a method
// handed on as a callback (the hooks a loop gives Edge.Intake) runs on the
// hot path like one it calls itself (closure bodies count as part of cur).
func callees(cur *funcInfo) []*types.Func {
	var out []*types.Func
	ast.Inspect(cur.decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := cur.pkg.Info.Uses[id].(*types.Func); ok {
				out = append(out, fn)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// implementations replaces every interface method among fns by the
// methods it can dispatch to: that method on each of the program's named
// types implementing the interface. A shell that drives its engine through
// an interface keeps the engine on the hot path.
func implementations(pass *analysis.Pass, fns []*types.Func) []*types.Func {
	var out []*types.Func
	for _, fn := range fns {
		var iface *types.Interface
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			iface, _ = recv.Type().Underlying().(*types.Interface)
		}
		if iface == nil {
			out = append(out, fn)
			continue
		}
		for _, pkg := range pass.Program {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				ptr := types.NewPointer(tn.Type())
				if named := tn.Type().(*types.Named); named.TypeParams().Len() > 0 || !types.Implements(ptr, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name()); m != nil {
					out = append(out, m.(*types.Func))
				}
			}
		}
	}
	return out
}

// checkBody flags forbidden operations in one hot function.
func checkBody(pass *analysis.Pass, fi *funcInfo, root string, reported map[token.Pos]bool) {
	info := fi.pkg.Info
	where := owner(fi.fn)
	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Report(analysis.Diagnostic{
			Pos: pos,
			Message: what + " in " + where + ", reachable from " + root +
				" (hot loop: pass timestamps in, stage output, never block)",
		})
	}

	// Spans of panic(...) arguments: formatting a crash message is fine.
	var panicArgs []ast.Node
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				for _, a := range call.Args {
					panicArgs = append(panicArgs, a)
				}
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, a := range panicArgs {
			if a.Pos() <= pos && pos < a.End() {
				return true
			}
		}
		return false
	}

	// Channel ops that are a select's comm clause are judged by the select
	// (blocking only without a default), not as standalone ops.
	var commSpans []ast.Node
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			commSpans = append(commSpans, cc.Comm)
		}
		return true
	})
	inComm := func(pos token.Pos) bool {
		for _, s := range commSpans {
			if s.Pos() <= pos && pos < s.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(info, n)
			if fn == nil {
				return true
			}
			switch {
			case analysis.IsFunc(fn, "time", "Now"),
				analysis.IsFunc(fn, "time", "Since"),
				analysis.IsFunc(fn, "time", "Until"):
				report(n.Pos(), "clock read time."+fn.Name())
			case analysis.IsFunc(fn, "fmt", "Sprintf"),
				analysis.IsFunc(fn, "fmt", "Sprint"),
				analysis.IsFunc(fn, "fmt", "Sprintln"):
				if !inPanic(n.Pos()) {
					report(n.Pos(), "string formatting fmt."+fn.Name())
				}
			case isLock(fn):
				report(n.Pos(), "lock acquisition sync."+recvName(fn)+"."+fn.Name())
			}
		case *ast.SendStmt:
			if !inComm(n.Pos()) {
				report(n.Pos(), "blocking channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm(n.Pos()) {
				report(n.Pos(), "blocking channel receive")
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "blocking range over channel")
				}
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					return true // has default: non-blocking
				}
			}
			report(n.Pos(), "blocking select (no default)")
		}
		return true
	})
}

// isLock reports whether fn is a blocking sync primitive acquisition.
func isLock(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch recvName(fn) + "." + fn.Name() {
	case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock",
		"WaitGroup.Wait", "Cond.Wait":
		return true
	}
	return false
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	n := analysis.NamedOf(sig.Recv().Type())
	if n == nil {
		return ""
	}
	return n.Obj().Name()
}

// owner renders fn as (*Recv).Name or pkg.Name for diagnostics.
func owner(fn *types.Func) string {
	if r := recvName(fn); r != "" {
		return "(*" + r + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// serviceInterface resolves newtos/internal/proc.Service.
func serviceInterface(pass *analysis.Pass) *types.Interface {
	for _, pkg := range pass.Program {
		if pkg.Path == procPath {
			return lookupIface(pkg.Types)
		}
	}
	return nil
}

func lookupIface(p *types.Package) *types.Interface {
	obj := p.Scope().Lookup("Service")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
