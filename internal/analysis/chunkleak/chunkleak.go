// Package chunkleak enforces the shm chunk ownership contract: a chunk
// obtained from Pool.Alloc must, on every control-flow path to the
// function's return, be freed (Pool.Free), staged into a request/outbox, or
// handed off to another owner — mentioning the rich pointer at all (as a
// call argument, in a composite literal, in an assignment, in a return)
// counts as the hand-off. What it catches is the early-return leak class
// from PR 3/PR 4: an error path between Alloc and the hand-off that returns
// with the chunk still owned by nobody, pinning it in the pool forever.
//
// The branch guarded by the Alloc's own error (if err != nil { ... }) is
// exempt: a failed Alloc returns no chunk. Paths that end in panic or
// log.Fatal are exempt too. Functions using goto, labels, or fallthrough
// are skipped rather than guessed at.
//
// The mutation that proves it is needed: an early return between the
// header Alloc and its hand-off in udpeng.send, refusing a datagram longer
// than UDP can carry. Every tier-1 test still passes; no test sends down
// that path, and no runtime check compares the pools with their baseline.
package chunkleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"newtos/internal/analysis"
)

const shmPath = "newtos/internal/shm"

// Analyzer reports pool chunks that can reach a return unconsumed.
var Analyzer = &analysis.Analyzer{
	Name: "chunkleak",
	Doc: "a chunk from shm Pool.Alloc must reach Free, a stage/send, or a " +
		"hand-off on every path to return",
	Run: run,
}

// alloc is one tracked Pool.Alloc statement.
type alloc struct {
	stmt *ast.AssignStmt
	ptr  types.Object // the RichPtr variable
	err  types.Object // the error variable (nil when blank)
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Analyze the function body, and every closure inside it as its
			// own flow (drain handlers and completion callbacks allocate
			// too).
			checkBody(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	allocs := findAllocs(info, body)
	if len(allocs) == 0 {
		return
	}
	g, _ := buildCFG(body)
	if g.unsupported {
		return // goto/label/fallthrough: out of model, skip the function
	}

	for _, al := range allocs {
		if deferConsumes(info, body, al.ptr) {
			continue
		}
		exempt := exemptSpans(info, body, al.err)
		start := g.byStmt[ast.Stmt(al.stmt)]
		if start == nil {
			continue
		}
		if leaks(pass, g, start, al, exempt) {
			pass.Report(analysis.Diagnostic{
				Pos: al.stmt.Pos(),
				Message: "chunk " + al.ptr.Name() + " from Pool.Alloc may reach a " +
					"return without Free, stage, or hand-off on some path",
			})
		}
	}
}

// findAllocs collects `ptr, buf, err := pool.Alloc()` statements at the top
// level of body (not inside nested closures — each closure is analyzed as
// its own flow).
func findAllocs(info *types.Info, body *ast.BlockStmt) []alloc {
	var out []alloc
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 3 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if !analysis.IsMethod(fn, shmPath, "Pool", "Alloc") {
			return true
		}
		ptrObj := lhsObject(info, as.Lhs[0])
		if ptrObj == nil {
			return true // blank: the chunk is discarded, nothing to track
		}
		out = append(out, alloc{stmt: as, ptr: ptrObj, err: lhsObject(info, as.Lhs[2])})
		return true
	})
	return out
}

func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// deferConsumes reports whether a defer in body mentions the chunk — a
// deferred Free covers every path at once.
func deferConsumes(info *types.Info, body *ast.BlockStmt, ptr types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ds, ok := n.(*ast.DeferStmt); ok && analysis.UsesObject(info, ds, ptr) {
			found = true
		}
		return true
	})
	return found
}

// span is a source range used to mark exempt (alloc-failed) branches.
type span struct{ pos, end token.Pos }

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

// exemptSpans finds the branches guarded by the alloc's own error check:
// the then-branch of `if err != nil` and the else-branch of `if err == nil`.
func exemptSpans(info *types.Info, body *ast.BlockStmt, errObj types.Object) []span {
	if errObj == nil {
		return nil
	}
	var out []span
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cmp, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		if x, ok := ast.Unparen(cmp.X).(*ast.Ident); ok && isNil(info, cmp.Y) {
			id = x
		} else if y, ok := ast.Unparen(cmp.Y).(*ast.Ident); ok && isNil(info, cmp.X) {
			id = y
		}
		if id == nil || info.Uses[id] != errObj {
			return true
		}
		switch cmp.Op {
		case token.NEQ:
			out = append(out, span{ifs.Body.Pos(), ifs.Body.End()})
		case token.EQL:
			if ifs.Else != nil {
				out = append(out, span{ifs.Else.Pos(), ifs.Else.End()})
			}
		}
		return true
	})
	return out
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}

// leaks walks the CFG from the alloc looking for a path to exit on which
// the chunk is never mentioned and that is not an alloc-failure branch.
func leaks(pass *analysis.Pass, g *cfg, start *cfgNode, al alloc, exempt []span) bool {
	satisfied := func(n *cfgNode) bool {
		if n == start {
			return false // the alloc statement itself defines, not consumes
		}
		if n.terminates {
			return true // crash path
		}
		if n.stmt != nil {
			p := n.stmt.Pos()
			for _, s := range exempt {
				if s.contains(p) {
					return true // alloc failed on this branch; nothing to free
				}
			}
		}
		for _, u := range n.use {
			if analysis.UsesObject(pass.TypesInfo, u, al.ptr) {
				return true
			}
		}
		return false
	}

	seen := map[*cfgNode]bool{}
	work := append([]*cfgNode{}, start.succs...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n == g.exit {
			return true
		}
		if satisfied(n) {
			continue
		}
		work = append(work, n.succs...)
	}
	return false
}
