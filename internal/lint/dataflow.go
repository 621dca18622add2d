package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function forward dataflow pass of the v2 engine:
// value-source tags ("taints") are seeded at source expressions and
// propagated through assignments, composite expressions, direct calls (via
// caller-supplied summaries) and into return values. The analysis is
// flow-insensitive within a function — variable taints are a fixpoint over
// all assignments, and a sanitizer anywhere clears the variable everywhere —
// which biases it against false positives exactly like the PR 2 analyzers:
// an intervening sort.Ints is honoured no matter where it appears, at the
// cost of missing a use that textually precedes it.

// Taint is a bit set of value-source tags. The engine is tag-agnostic;
// analyzers define their own bits (see maporder.go).
type Taint uint32

// FlowConfig parameterises one dataflow analysis.
type FlowConfig struct {
	Info *types.Info

	// RangeSeed returns the taint to give the key and value variables of a
	// range statement, based on the ranged-over expression's type and taint
	// (e.g. map iteration ⇒ taintMapOrder). May be nil.
	RangeSeed func(rng *ast.RangeStmt, overTaint Taint) Taint

	// Call returns the taint of a call expression's results given the
	// resolved callee (nil for dynamic calls) and the taints of the
	// arguments. This is where cross-function and cross-package summaries
	// (facts) plug in. May be nil.
	Call func(call *ast.CallExpr, callee *types.Func, args []Taint) Taint

	// Sanitize returns the variable a call statement cleanses (e.g.
	// sort.Ints(x) ⇒ x) or nil. A sanitized variable ends the analysis with
	// no taint regardless of its sources. May be nil.
	Sanitize func(call *ast.CallExpr) *types.Var
}

// FuncFlow is the result of analysing one function body.
type FuncFlow struct {
	// Vars is the final taint of every variable that acquired one.
	Vars map[*types.Var]Taint
	// Ret is the union of the taints of every returned expression.
	Ret Taint
	// Origin maps a tainted variable to the statement that first seeded its
	// taint (a range statement for map-iteration sources, an assignment for
	// call-derived sources) — the anchor suggested fixes attach to.
	Origin map[*types.Var]ast.Node

	cfg       *FlowConfig
	sanitized map[*types.Var]bool
}

// analyzeFlow runs the forward pass over body to fixpoint and returns the
// resulting variable taints. body may be nil (declarations without bodies
// yield an empty flow).
func analyzeFlow(cfg *FlowConfig, body *ast.BlockStmt) *FuncFlow {
	fl := &FuncFlow{
		Vars:      make(map[*types.Var]Taint),
		Origin:    make(map[*types.Var]ast.Node),
		cfg:       cfg,
		sanitized: make(map[*types.Var]bool),
	}
	if body == nil {
		return fl
	}

	// Sanitizers first: a cleansed variable never carries taint out of the
	// analysis, so recording them up front lets the fixpoint skip them.
	if cfg.Sanitize != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v := cfg.Sanitize(call); v != nil {
					fl.sanitized[v] = true
				}
			}
			return true
		})
	}

	// Fixpoint over the assignment/range/return structure. Bounded by the
	// number of taint bits times variables; the cap is a safety net.
	for iter := 0; iter < 32; iter++ {
		if !fl.pass(body) {
			break
		}
	}

	for v := range fl.sanitized {
		delete(fl.Vars, v)
		delete(fl.Origin, v)
	}
	return fl
}

// pass walks body once, reporting whether any taint changed.
func (fl *FuncFlow) pass(body *ast.BlockStmt) bool {
	changed := false
	taintVar := func(v *types.Var, t Taint, origin ast.Node) {
		if v == nil || t == 0 {
			return
		}
		if fl.Vars[v]&t != t {
			fl.Vars[v] |= t
			changed = true
			if _, ok := fl.Origin[v]; !ok && origin != nil {
				fl.Origin[v] = origin
			}
		}
	}
	assign := func(lhs ast.Expr, t Taint, origin ast.Node) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj, ok := fl.cfg.Info.Defs[id].(*types.Var)
		if !ok {
			obj, _ = fl.cfg.Info.Uses[id].(*types.Var)
		}
		taintVar(obj, t, origin)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// x, y := f(): every result gets the call's taint.
				t := fl.exprTaint(n.Rhs[0])
				for _, lhs := range n.Lhs {
					assign(lhs, t, n)
				}
				return true
			}
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					assign(n.Lhs[i], fl.exprTaint(n.Rhs[i]), n)
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 1 {
				t := fl.exprTaint(n.Values[0])
				for _, name := range n.Names {
					assign(name, t, n)
				}
				return true
			}
			for i, name := range n.Names {
				if i < len(n.Values) {
					assign(name, fl.exprTaint(n.Values[i]), n)
				}
			}
		case *ast.RangeStmt:
			over := fl.exprTaint(n.X)
			var seed Taint
			if fl.cfg.RangeSeed != nil {
				seed = fl.cfg.RangeSeed(n, over)
			}
			// Ranging over a tainted slice hands the taint to the element
			// variable (the order of elements is the tainted property); the
			// index variable of a slice range is just a counter.
			elem := over
			if isMapType(fl.cfg.Info, n.X) {
				// Map keys and values both depend on iteration order.
				if n.Key != nil {
					assign(n.Key, seed, n)
				}
				if n.Value != nil {
					assign(n.Value, seed, n)
				}
			} else {
				if n.Value != nil {
					assign(n.Value, seed|elem, n)
				} else if n.Key != nil && isChanExpr(fl.cfg.Info, n.X) {
					assign(n.Key, seed|elem, n)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if t := fl.exprTaint(res); fl.Ret&t != t {
					fl.Ret |= t
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// exprTaint computes the taint of an expression from its operands, the
// seeded sources and the call summaries.
func (fl *FuncFlow) exprTaint(e ast.Expr) Taint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := fl.cfg.Info.Uses[e].(*types.Var)
		if v == nil || fl.sanitized[v] {
			return 0
		}
		return fl.Vars[v]
	case *ast.IndexExpr:
		return fl.exprTaint(e.X)
	case *ast.SliceExpr:
		return fl.exprTaint(e.X)
	case *ast.StarExpr:
		return fl.exprTaint(e.X)
	case *ast.UnaryExpr:
		return fl.exprTaint(e.X)
	case *ast.CompositeLit:
		var t Taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= fl.exprTaint(kv.Value)
			} else {
				t |= fl.exprTaint(el)
			}
		}
		return t
	case *ast.CallExpr:
		return fl.callTaint(e)
	}
	return 0
}

// callTaint computes the taint of a call's results: builtins that forward
// their operands (append, copy-free conversions) propagate, everything else
// defers to the analyzer's Call summary.
func (fl *FuncFlow) callTaint(call *ast.CallExpr) Taint {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fl.cfg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var t Taint
				for _, a := range call.Args {
					t |= fl.exprTaint(a)
				}
				return t
			case "min", "max":
				var t Taint
				for _, a := range call.Args {
					t |= fl.exprTaint(a)
				}
				return t
			}
			return 0
		}
	}
	// Conversions keep their operand's taint ([]byte(s), T(x)).
	if tv, ok := fl.cfg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return fl.exprTaint(call.Args[0])
	}
	if fl.cfg.Call == nil {
		return 0
	}
	args := make([]Taint, len(call.Args))
	for i, a := range call.Args {
		args[i] = fl.exprTaint(a)
	}
	return fl.cfg.Call(call, calleeOf(fl.cfg.Info, call), args)
}

// VarTaint returns the final taint of the variable behind expression e, or
// of the expression itself for non-identifiers.
func (fl *FuncFlow) VarTaint(e ast.Expr) Taint {
	return fl.exprTaint(e)
}

// isMapType reports whether expression e has map type.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isChanExpr reports whether expression e has channel type.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isChanType(tv.Type)
}

// posInside reports whether pos falls within node's extent.
func posInside(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos <= node.End()
}
