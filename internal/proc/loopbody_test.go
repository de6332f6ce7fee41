package proc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// pollSide are the packages (under internal/) whose code runs inside a
// server's Poll: a loop body with a core to itself (paper §V). It takes its
// timestamp as Poll(now), stages its output and never blocks, so none of
// its functions may read the clock, touch a channel, take a lock or wait.
var pollSide = []string{
	"driver", "ipeng", "ipsrv", "msg", "netpkt", "pf", "pfeng",
	"sockbuf", "spsc", "staterec", "syscallsrv", "tcpeng", "transport", "udpeng",
}

// exempt names the functions, as pkg.Func or pkg.Recv.Method (or a bare
// method name for every receiver), that may break a rule below, and why.
var exempt = map[string]string{
	"Init":                     "runs once per incarnation, before the first Poll",
	"transport.restoreHandoff": "called only from Init",
	"tcpeng.Engine.Tick":       "self-times its iteration for TickStats; the passed-in now cannot measure it",
	"kipc.spin":                "burning the core is its job: it models a trap's cost",
}

// TestLoopBodies fails on two loop faults no other test sees, because both
// cost only processor time:
//   - an empty-bodied for loop that waits on time.Now, time.Since or
//     time.Until, anywhere outside bench/: it holds its processor for the
//     whole wait, and the server loops share the box's few cores with the
//     simulated hardware (yield or sleep in the body instead);
//   - a clock read, channel operation, Lock or Wait in a pollSide package.
//
// It parses the source only; test files may spin and block.
func TestLoopBodies(t *testing.T) {
	root := filepath.Join("..", "..")
	poll := map[string]bool{}
	for _, p := range pollSide {
		poll[filepath.Join(root, "internal", p)] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isExempt(f.Name.Name, fd) {
				continue
			}
			where := func(n ast.Node) string { return fset.Position(n.Pos()).String() + " in " + fd.Name.Name }
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if loop, ok := n.(*ast.ForStmt); ok && loop.Cond != nil && len(loop.Body.List) == 0 && readsClock(loop.Cond) {
					t.Errorf("%s: empty loop spins on the clock (yield or sleep in its body)", where(n))
				}
				if !poll[filepath.Dir(path)] {
					return true
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if clockCall(n) {
						t.Errorf("%s: clock read on the Poll side (use the Poll's now)", where(n))
					} else if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" || sel.Sel.Name == "Wait") {
						t.Errorf("%s: lock or wait on the Poll side", where(n))
					}
				case *ast.SendStmt, *ast.SelectStmt:
					t.Errorf("%s: channel operation on the Poll side", where(n))
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						t.Errorf("%s: channel receive on the Poll side", where(n))
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isExempt reports whether fd, declared in package pkg, has an exempt entry.
func isExempt(pkg string, fd *ast.FuncDecl) bool {
	name := pkg + "." + fd.Name.Name
	if fd.Recv != nil {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			name = pkg + "." + id.Name + "." + fd.Name.Name
		}
		if _, ok := exempt[fd.Name.Name]; ok {
			return true
		}
	}
	_, ok := exempt[name]
	return ok
}

// readsClock reports whether expr calls time.Now, time.Since or time.Until.
func readsClock(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && clockCall(call) {
			found = true
		}
		return !found
	})
	return found
}

func clockCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until")
}
