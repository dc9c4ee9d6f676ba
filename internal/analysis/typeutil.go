package analysis

import (
	"go/ast"
	"go/types"
)

// Helpers shared by the analyzers in internal/analysis/passes. They resolve
// the handful of go/types questions every pass keeps asking — "what named
// type is this, ignoring pointers", "which function does this call resolve
// to" — so the passes stay focused on their invariant.

// Deref returns t with any pointer indirections removed.
func Deref(t types.Type) types.Type {
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = ptr.Elem()
	}
}

// TypeName returns the "pkgpath.Name" of the (possibly pointed-to) named
// type, or "" for unnamed types. Universe types like error return just the
// name.
func TypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := Deref(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// IsSyncPool reports whether t is sync.Pool or *sync.Pool.
func IsSyncPool(t types.Type) bool { return TypeName(t) == "sync.Pool" }

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool { return TypeName(t) == "context.Context" }

// Callee resolves the static callee of a call, or nil for calls of function
// values and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CalleeName returns the full name of the static callee ("context.Background",
// "(*repro/internal/datagraph.Graph).NeighborsID"), or "".
func CalleeName(info *types.Info, call *ast.CallExpr) string {
	fn := Callee(info, call)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// FuncDeclName renders a declaration's name for messages: "Name" for
// functions, "Recv.Name" for methods.
func FuncDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
