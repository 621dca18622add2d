package lint

import (
	"bytes"
	"strings"

	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// telemetryPath is the import path of the observability layer whose handle
// types are nil-when-disabled.
const telemetryPath = "mce/internal/telemetry"

// TelemetryGuard enforces the instrumentation contract of the observability
// layer: a nil *telemetry.Engine (or *telemetry.BlockInstr) means telemetry
// is disabled, so every site that dereferences one — selecting a counter
// field, calling Snapshot, bumping a BlockInstr counter — must be dominated
// by a nil check (`if met != nil { ... }`, `if e.Metrics == nil { return }`,
// `if met := e.Metrics; met != nil { ... }`) or the value must provably come
// from a constructor (telemetry.NewEngine(), &telemetry.BlockInstr{}, new,
// address-of). An unguarded site is a latent panic that only fires in the
// telemetry-off configuration — exactly the configuration most tests run.
//
// The check is a small nil-ness dataflow over each function body rather than
// a syntactic pattern match: guards established by if-conditions (including
// `&&` chains and early-return `== nil` forms) flow into the dominated
// statements, assignments from constructors establish non-nil-ness,
// reassignment from anything else revokes it, and function literals inherit
// the guards in scope where they are created (the repo's goroutine idiom).
var TelemetryGuard = &Analyzer{
	Name: "telemetryguard",
	Doc: "every dereference of a possibly-nil *telemetry.Engine or " +
		"*telemetry.BlockInstr must be behind a nil check",
	Run: runTelemetryGuard,
}

func runTelemetryGuard(pass *Pass) error {
	if pass.Pkg.PkgPath == telemetryPath || !importsPath(pass.Pkg, telemetryPath) {
		return nil
	}
	w := &tgWalker{pass: pass, info: pass.Pkg.Info}
	base := w.packageLevelNonNil()
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.stmts(fd.Body.List, cloneGuards(base))
		}
	}
	return nil
}

// importsPath reports whether pkg imports path (directly).
func importsPath(pkg *Package, path string) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == path {
			return true
		}
	}
	return false
}

// tgWalker carries the per-package state of one telemetryguard run. Guard
// sets (map of chain keys known non-nil) are threaded through the walk
// explicitly; the walker itself holds only immutable context.
type tgWalker struct {
	pass *Pass
	info *types.Info
}

// telemetryPtr reports whether t is *telemetry.Engine or
// *telemetry.BlockInstr, returning the bare type name.
func telemetryPtr(t types.Type) (string, bool) {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return "", false
	}
	// Unalias again below the pointer: mce.TelemetryEngine is an alias of
	// telemetry.Engine, and *TelemetryEngine must guard like *Engine.
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != telemetryPath {
		return "", false
	}
	if n := obj.Name(); n == "Engine" || n == "BlockInstr" {
		return n, true
	}
	return "", false
}

// chainKey canonicalises the guardable expressions — an identifier or a
// chain of field selections rooted at one (`met`, `e.Metrics`,
// `w.opts.Metrics`) — so the same value is recognised at the guard and at
// the use. Root variables are keyed by declaration position, which makes
// shadowed names distinct keys for free.
func (w *tgWalker) chainKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := w.info.ObjectOf(e).(*types.Var); ok {
			return v.Name() + "@" + w.pass.Pkg.Fset.Position(v.Pos()).String(), true
		}
	case *ast.SelectorExpr:
		base, ok := w.chainKey(e.X)
		if !ok {
			return "", false
		}
		if f := selectedField(w.info, e); f != nil {
			return base + "." + f.Name(), true
		}
	}
	return "", false
}

// packageLevelNonNil seeds the guard set with package-level telemetry vars
// initialised from a constructor — those are non-nil in every function.
func (w *tgWalker) packageLevelNonNil() map[string]bool {
	g := make(map[string]bool)
	for _, f := range w.pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					if key, ok := w.chainKey(name); ok && w.nonNil(vs.Values[i], g) {
						g[key] = true
					}
				}
			}
		}
	}
	return g
}

// nonNil reports whether e is provably non-nil under the guards g: a
// constructor call from the telemetry package (NewEngine, NewHistogram...),
// builtin new, an address-of expression, or a chain already guarded.
func (w *tgWalker) nonNil(e ast.Expr, g map[string]bool) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		return e.Op == token.AND
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := w.info.ObjectOf(id).(*types.Builtin); ok {
				return b.Name() == "new"
			}
		}
		// A New*-named constructor counts wherever it is declared: the
		// telemetry package's own NewEngine, but also module-local wrappers
		// like mce.NewTelemetryEngine. By Go convention a New* function
		// returning a handle pointer yields a usable value, never nil.
		if fn := calleeOf(w.info, e); fn != nil && strings.HasPrefix(fn.Name(), "New") {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
				if _, ok := telemetryPtr(sig.Results().At(0).Type()); ok {
					return true
				}
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		if key, ok := w.chainKey(e); ok {
			return g[key]
		}
	}
	return false
}

func cloneGuards(g map[string]bool) map[string]bool {
	out := make(map[string]bool, len(g))
	for k := range g {
		out[k] = true
	}
	return out
}

// stmts walks a statement list sequentially, mutating g as guards are
// established and revoked.
func (w *tgWalker) stmts(list []ast.Stmt, g map[string]bool) {
	for _, s := range list {
		w.stmt(s, g)
	}
}

// stmt processes one statement.
func (w *tgWalker) stmt(s ast.Stmt, g map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.checkExpr(s.X, g)
	case *ast.IncDecStmt:
		w.checkExpr(s.X, g)
	case *ast.SendStmt:
		w.checkExpr(s.Chan, g)
		w.checkExpr(s.Value, g)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, g)
		}
	case *ast.AssignStmt:
		w.assign(s, g)
	case *ast.DeclStmt:
		w.declStmt(s, g)
	case *ast.IfStmt:
		w.ifStmt(s, g)
	case *ast.BlockStmt:
		w.stmts(s.List, cloneGuards(g))
		w.invalidateAssigned(s, g)
	case *ast.ForStmt:
		gf := cloneGuards(g)
		if s.Init != nil {
			w.stmt(s.Init, gf)
		}
		// Guards established before the loop survive only if the body does
		// not reassign them — the second iteration sees the body's effects.
		if s.Body != nil {
			w.invalidateAssigned(s.Body, gf)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, gf)
		}
		if s.Body != nil {
			w.stmts(s.Body.List, cloneGuards(gf))
		}
		if s.Post != nil {
			w.stmt(s.Post, gf)
		}
		w.invalidateAssigned(s, g)
	case *ast.RangeStmt:
		w.checkExpr(s.X, g)
		gf := cloneGuards(g)
		w.invalidateAssigned(s.Body, gf)
		w.stmts(s.Body.List, gf)
		w.invalidateAssigned(s, g)
	case *ast.SwitchStmt:
		gs := cloneGuards(g)
		if s.Init != nil {
			w.stmt(s.Init, gs)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, gs)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.checkExpr(e, gs)
				}
				w.stmts(cc.Body, cloneGuards(gs))
			}
		}
		w.invalidateAssigned(s, g)
	case *ast.TypeSwitchStmt:
		gs := cloneGuards(g)
		if s.Init != nil {
			w.stmt(s.Init, gs)
		}
		w.stmt(s.Assign, gs)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, cloneGuards(gs))
			}
		}
		w.invalidateAssigned(s, g)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				gs := cloneGuards(g)
				if cc.Comm != nil {
					w.stmt(cc.Comm, gs)
				}
				w.stmts(cc.Body, gs)
			}
		}
		w.invalidateAssigned(s, g)
	case *ast.GoStmt:
		w.checkExpr(s.Call, g)
	case *ast.DeferStmt:
		w.checkExpr(s.Call, g)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, g)
	}
}

// assign checks the RHS (and any dereferencing LHS) and then updates the
// guard set: a chainable LHS assigned a provably non-nil value becomes
// guarded; assigned anything else, it and every chain extending it are
// revoked.
func (w *tgWalker) assign(s *ast.AssignStmt, g map[string]bool) {
	for _, r := range s.Rhs {
		w.checkExpr(r, g)
	}
	for _, l := range s.Lhs {
		w.checkExpr(l, g)
	}
	if len(s.Lhs) == len(s.Rhs) && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
		for i := range s.Lhs {
			key, ok := w.chainKey(s.Lhs[i])
			if !ok {
				continue
			}
			if w.nonNil(s.Rhs[i], g) {
				g[key] = true
			} else {
				invalidateChain(g, key)
			}
		}
		return
	}
	for _, l := range s.Lhs {
		if key, ok := w.chainKey(l); ok {
			invalidateChain(g, key)
		}
	}
}

func (w *tgWalker) declStmt(s *ast.DeclStmt, g map[string]bool) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.checkExpr(v, g)
		}
		if len(vs.Names) != len(vs.Values) {
			continue
		}
		for i, name := range vs.Names {
			if key, ok := w.chainKey(name); ok && w.nonNil(vs.Values[i], g) {
				g[key] = true
			}
		}
	}
}

// ifStmt threads guards through the three-way split: condition facts flow
// into the then-branch (positive) and else-branch (negative), and when a
// `== nil` branch unconditionally leaves the function, the negative facts
// survive into the rest of the block — the early-return guard idiom.
func (w *tgWalker) ifStmt(s *ast.IfStmt, g map[string]bool) {
	gi := cloneGuards(g)
	if s.Init != nil {
		w.stmt(s.Init, gi)
	}
	pos, neg := w.cond(s.Cond, gi)
	gThen := cloneGuards(gi)
	for k := range pos {
		gThen[k] = true
	}
	w.stmts(s.Body.List, gThen)
	if s.Else != nil {
		gElse := cloneGuards(gi)
		for k := range neg {
			gElse[k] = true
		}
		w.stmt(s.Else, gElse)
	}
	w.invalidateAssigned(s, g)
	if terminates(s.Body) {
		for k := range neg {
			g[k] = true
		}
	}
}

// cond extracts the nil-ness facts of a condition: pos holds chains non-nil
// when the condition is true, neg holds chains non-nil when it is false. It
// also checks the condition's own subexpressions for unguarded derefs,
// respecting && / || short-circuit order.
func (w *tgWalker) cond(e ast.Expr, g map[string]bool) (pos, neg map[string]bool) {
	pos, neg = map[string]bool{}, map[string]bool{}
	switch b := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch b.Op {
		case token.LAND:
			lp, _ := w.cond(b.X, g)
			gr := cloneGuards(g)
			for k := range lp {
				gr[k] = true
			}
			rp, _ := w.cond(b.Y, gr)
			for k := range lp {
				pos[k] = true
			}
			for k := range rp {
				pos[k] = true
			}
			return pos, neg
		case token.LOR:
			_, ln := w.cond(b.X, g)
			gr := cloneGuards(g)
			for k := range ln {
				gr[k] = true
			}
			_, rn := w.cond(b.Y, gr)
			for k := range ln {
				neg[k] = true
			}
			for k := range rn {
				neg[k] = true
			}
			return pos, neg
		case token.NEQ, token.EQL:
			var other ast.Expr
			if w.isNil(b.X) {
				other = b.Y
			} else if w.isNil(b.Y) {
				other = b.X
			}
			w.checkExpr(e, g)
			if other != nil {
				if key, ok := w.chainKey(other); ok {
					if b.Op == token.NEQ {
						pos[key] = true
					} else {
						neg[key] = true
					}
				}
			}
			return pos, neg
		}
	case *ast.UnaryExpr:
		if b.Op == token.NOT {
			p, n := w.cond(b.X, g)
			return n, p
		}
	}
	w.checkExpr(e, g)
	return pos, neg
}

func (w *tgWalker) isNil(e ast.Expr) bool {
	tv, ok := w.info.Types[e]
	return ok && tv.IsNil()
}

// terminates reports whether a block unconditionally leaves the enclosing
// flow: its last statement is a return, a branch (break/continue/goto) or a
// panic call.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// invalidateChain revokes key and every chain extending it (reassigning
// `e` kills the fact about `e.Metrics` too).
func invalidateChain(g map[string]bool, key string) {
	delete(g, key)
	for k := range g {
		if strings.HasPrefix(k, key+".") {
			delete(g, k)
		}
	}
}

// invalidateAssigned revokes every chain assigned (or inc/dec'd, or bound
// by a range clause) anywhere inside n — the conservative summary applied
// after compound statements and before loop bodies.
func (w *tgWalker) invalidateAssigned(n ast.Node, g map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for _, l := range node.Lhs {
				if key, ok := w.chainKey(l); ok {
					invalidateChain(g, key)
				}
			}
		case *ast.IncDecStmt:
			if key, ok := w.chainKey(node.X); ok {
				invalidateChain(g, key)
			}
		case *ast.RangeStmt:
			for _, l := range []ast.Expr{node.Key, node.Value} {
				if l == nil {
					continue
				}
				if key, ok := w.chainKey(l); ok {
					invalidateChain(g, key)
				}
			}
		}
		return true
	})
}

// checkExpr flags every unguarded dereference of a telemetry pointer inside
// e. Function literals are walked with a copy of the current guards — a
// closure inherits the nil-checks in scope where it is written, which is
// exactly the instrumented-goroutine idiom the repo uses.
func (w *tgWalker) checkExpr(e ast.Expr, g map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, cloneGuards(g))
			return false
		case *ast.SelectorExpr:
			w.derefCheck(n.X, g)
		case *ast.StarExpr:
			w.derefCheck(n.X, g)
		}
		return true
	})
}

// derefCheck reports x when it has a telemetry pointer type and is not
// provably non-nil at this point.
func (w *tgWalker) derefCheck(x ast.Expr, g map[string]bool) {
	tv, ok := w.info.Types[x]
	if !ok {
		return
	}
	tname, ok := telemetryPtr(tv.Type)
	if !ok {
		return
	}
	if w.nonNil(x, g) {
		return
	}
	if _, chainable := w.chainKey(x); !chainable {
		// A call result or other unnameable expression: nothing to guard by
		// name, and flagging those would punish helpers returning fresh
		// engines. Skip — the FP-biased choice.
		return
	}
	src := renderExpr(w.pass.Pkg.Fset, x)
	w.pass.Reportf(x.Pos(),
		"unguarded use of possibly-nil *telemetry.%s %s: nil means telemetry is disabled, so every instrumentation site needs `if %s != nil { ... }`",
		tname, src, src)
}

// renderExpr prints an expression back to source for diagnostics.
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
