package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves a call expression to the function or method object it
// invokes, or nil for calls through function values, builtins and
// conversions. A call of a generic function or method resolves to its
// declaration, whatever it is instantiated with — explicitly (f[T](x),
// f[K, V](x)) or by inference — so that every instantiation is one node of
// the call graph, the one its body is declared as.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// isPkgFunc reports whether the call invokes the package-level function
// pkgPath.name (not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// namedType unwraps pointers and aliases down to the named type, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// usedVar resolves an identifier expression to the variable it reads, or
// nil.
func usedVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Chan)
	return ok
}

// selectedField resolves a selector expression to the struct field it
// selects, or nil for methods, package selectors and qualified identifiers.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// ownerName names the struct type declaring field, best effort.
func ownerName(field *types.Var) string {
	if field.Pkg() != nil {
		scope := field.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == field {
					return tn.Name()
				}
			}
		}
	}
	return "struct"
}
