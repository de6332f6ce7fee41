// Package busywait reports a loop that waits for an instant by re-reading
// the clock with nothing in its body:
//
//	for time.Now().Before(due) {
//	}
//
// Such a loop holds its processor for the whole wait. The stack's server
// loops share the box's few processors with the simulated hardware, so a
// wait that does not yield (runtime.Gosched, a sleep, a timer) takes the
// cores the stack is being measured on. netlint loads no _test.go files, so
// tests may spin.
//
// The mutation that proves it is needed: Table II's measuring window in
// experiments/table2.go spinning on time.Since instead of sleeping. Every
// tier-1 test still passes, and the row measures a stack with one processor
// fewer. (The same spin in the wire's deliverLoop also fails
// nic.TestWireYieldsWhileFrameInFlight; that test guards one loop, this
// analyzer every loop.)
package busywait

import (
	"go/ast"

	"newtos/internal/analysis"
)

// Analyzer reports empty-bodied for loops whose condition reads the clock.
var Analyzer = &analysis.Analyzer{
	Name: "busywait",
	Doc: "a for loop with an empty body must not wait on time.Now, " +
		"time.Since or time.Until: yield or sleep in the body",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if ok && loop.Cond != nil && len(loop.Body.List) == 0 && readsClock(pass, loop.Cond) {
				pass.Report(analysis.Diagnostic{
					Pos: loop.Pos(),
					Message: "empty loop spins on the clock and holds its processor " +
						"for the whole wait (yield with runtime.Gosched or sleep)",
				})
			}
			return true
		})
	}
	return nil
}

// readsClock reports whether expr calls time.Now, time.Since or time.Until.
func readsClock(pass *analysis.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := analysis.Callee(pass.TypesInfo, call)
			found = analysis.IsFunc(fn, "time", "Now") ||
				analysis.IsFunc(fn, "time", "Since") ||
				analysis.IsFunc(fn, "time", "Until")
		}
		return !found
	})
	return found
}
