package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves the statically-called function or method of a call
// expression: an identifier (pkg-level func, local func value loses to nil),
// or a selector (method or imported func). Returns nil for indirect calls,
// conversions and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.F
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsFunc reports whether fn is the package-level function pkgPath.name.
func IsFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && recvTypeName(fn) == ""
}

// IsMethod reports whether fn is the method recvName.name declared in
// pkgPath (pointer and value receivers both match).
func IsMethod(fn *types.Func, pkgPath, recvName, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && recvTypeName(fn) == recvName
}

// recvTypeName returns the name of fn's receiver named type ("" for
// package-level functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// NamedOf unwraps pointers and returns the named type of t, or nil.
func NamedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// UsesObject reports whether any identifier under node refers to obj.
func UsesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return true
	})
	return found
}
