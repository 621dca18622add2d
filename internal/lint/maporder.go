package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder catches the PR 3 cross-process nondeterminism bug class
// statically. Go randomises map iteration order per process, so any value
// whose content or order derives from ranging over a map is different on
// every run — harmless until it flows into something that must be
// reproducible. The smoke gate caught exactly this at runtime: HolmeKim
// built a neighbour slice from a map range and indexed it with a seeded
// rng draw, so same-seed graphs differed across processes, silently
// threatening the Lemma 1 / Theorem 1 assumption that every participant
// derives the same decomposition. The analyzer tracks map-iteration-ordered
// values through the forward dataflow pass (assignments, appends, returns,
// direct calls — across package boundaries via exported function
// summaries) and reports when one reaches a determinism-sensitive sink
// without an intervening sort:
//
//   - a seeded rand draw indexing into the value (the PR 3 bug shape);
//   - a wire or journal frame (durable.AppendFrame: the bytes, and their
//     CRC, become run-dependent);
//   - ordered output (fmt printing), which breaks golden files and
//     cross-run diffing.
//
// sort.* and slices.Sort* calls sanitize the value, including through
// repo-local wrapper helpers (a function that sorts its parameter is
// recognised by summary, propagated over the call graph).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "map-iteration-ordered values must not reach seeded rand draws, " +
		"wire frames or ordered output without an intervening sort",
	Run: runMapOrder,
}

const (
	taintMapOrder Taint = 1 << iota // content/order depends on map iteration order
	taintRand                       // value derives from a math/rand draw
)

// mapOrderedFact marks a function whose return value is
// map-iteration-ordered — the cross-package half of the analysis.
type mapOrderedFact struct{ Ret bool }

func (*mapOrderedFact) AFact() {}

// sortsParamFact marks which slice parameters a function sorts (bitmask by
// parameter index), so repo-local sort wrappers sanitize like sort.Ints.
type sortsParamFact struct{ Params uint32 }

func (*sortsParamFact) AFact() {}

func runMapOrder(pass *Pass) error {
	// Phase 1: function summaries for this package, driven by a call-graph
	// worklist so same-package (even mutually recursive) helpers resolve to
	// fixpoint: when a summary changes, only its callers are re-analysed.
	// Cross-package callees resolve through facts exported by earlier
	// packages — the Suite analyses imports first.
	fns := packageFuncs(pass.Pkg)
	byObj := make(map[*types.Func]pkgFunc, len(fns))
	for _, fn := range fns {
		byObj[fn.obj] = fn
	}
	cg := pass.Suite.CallGraph()
	work := append([]pkgFunc(nil), fns...)
	queued := make(map[*types.Func]bool, len(fns))
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		queued[fn.obj] = false
		if !summarizeMapOrder(pass, fn.obj, fn.decl) {
			continue
		}
		for _, caller := range cg.Callers(fn.obj) {
			if c, ok := byObj[caller]; ok && !queued[caller] {
				queued[caller] = true
				work = append(work, c)
			}
		}
	}

	// Phase 2: flag sinks in every function (including methods on local
	// types and nested literals, which analyzeFlow walks as part of the
	// enclosing body).
	for _, fn := range fns {
		flagMapOrderSinks(pass, fn.decl)
	}
	return nil
}

// pkgFunc pairs a declared function with its object.
type pkgFunc struct {
	obj  *types.Func
	decl *ast.FuncDecl
}

// packageFuncs lists the function declarations of the pass's package in
// source order.
func packageFuncs(pkg *Package) []pkgFunc {
	var out []pkgFunc
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, pkgFunc{obj: obj, decl: fd})
		}
	}
	return out
}

// mapOrderFlow runs the dataflow pass configured for map-order tracking
// over one function body.
func (p *Pass) mapOrderFlow(body *ast.BlockStmt) *FuncFlow {
	info := p.Pkg.Info
	cfg := &FlowConfig{
		Info: info,
		RangeSeed: func(rng *ast.RangeStmt, _ Taint) Taint {
			if isMapType(info, rng.X) {
				return taintMapOrder
			}
			return 0
		},
		Call: func(call *ast.CallExpr, callee *types.Func, args []Taint) Taint {
			return p.mapOrderCallTaint(call, callee, args)
		},
		Sanitize: func(call *ast.CallExpr) *types.Var {
			return p.mapOrderSanitized(call)
		},
	}
	return analyzeFlow(cfg, body)
}

// mapOrderCallTaint is the call summary: rand draws, known stdlib
// propagators, and fact-carrying repo functions.
func (p *Pass) mapOrderCallTaint(call *ast.CallExpr, callee *types.Func, args []Taint) Taint {
	if callee == nil {
		return 0
	}
	union := Taint(0)
	for _, a := range args {
		union |= a
	}
	pkgPath := ""
	if callee.Pkg() != nil {
		pkgPath = callee.Pkg().Path()
	}
	switch pkgPath {
	case "math/rand", "math/rand/v2":
		return taintRand
	case "fmt":
		if strings.HasPrefix(callee.Name(), "Sprint") {
			return union // Sprintf(tainted) keeps the order-dependence
		}
		return 0
	case "strings":
		if callee.Name() == "Join" {
			return union
		}
		return 0
	case "maps":
		// maps.Keys/Values iterate in map order (Go ≥1.23 iterators).
		if callee.Name() == "Keys" || callee.Name() == "Values" {
			return taintMapOrder
		}
		return 0
	case "slices":
		// slices.Sorted / SortedFunc consume an order-dependent sequence
		// and emit a deterministic one.
		if strings.HasPrefix(callee.Name(), "Sorted") {
			return union &^ taintMapOrder
		}
		if callee.Name() == "Collect" || callee.Name() == "Clone" || callee.Name() == "Concat" {
			return union
		}
		return 0
	}
	var fact mapOrderedFact
	if p.ImportObjectFact(callee, &fact) && fact.Ret {
		return taintMapOrder
	}
	return 0
}

// mapOrderSanitized resolves a call to the variable it sorts, if any:
// stdlib sort entry points, plus repo functions summarised (transitively,
// over the call graph) as sorting a parameter.
func (p *Pass) mapOrderSanitized(call *ast.CallExpr) *types.Var {
	info := p.Pkg.Info
	for _, c := range []struct{ pkg, fn string }{
		{"sort", "Ints"}, {"sort", "Strings"}, {"sort", "Float64s"},
		{"sort", "Slice"}, {"sort", "SliceStable"}, {"sort", "Sort"}, {"sort", "Stable"},
		{"slices", "Sort"}, {"slices", "SortFunc"}, {"slices", "SortStableFunc"},
	} {
		if isPkgFunc(info, call, c.pkg, c.fn) && len(call.Args) > 0 {
			return usedVar(info, call.Args[0])
		}
	}
	callee := calleeOf(info, call)
	if callee == nil {
		return nil
	}
	var fact sortsParamFact
	if p.ImportObjectFact(callee, &fact) && fact.Params != 0 {
		for i, arg := range call.Args {
			if i < 32 && fact.Params&(1<<uint(i)) != 0 {
				if v := usedVar(info, arg); v != nil {
					return v
				}
			}
		}
	}
	return nil
}

// summarizeMapOrder computes and exports fn's summaries, reporting whether
// either fact changed (drives the package-level fixpoint).
func summarizeMapOrder(pass *Pass, fn *types.Func, decl *ast.FuncDecl) bool {
	fl := pass.mapOrderFlow(decl.Body)
	changed := false

	var retFact mapOrderedFact
	pass.ImportObjectFact(fn, &retFact)
	if ret := fl.Ret&taintMapOrder != 0; ret != retFact.Ret {
		retFact.Ret = ret
		pass.ExportObjectFact(fn, &retFact)
		changed = true
	}

	// Which parameters does the body sort? Direct sanitizer calls are
	// enough here: transitive wrappers resolve through the fixpoint (the
	// inner wrapper's fact makes the outer call a sanitizer next round).
	var params uint32
	sig := fn.Type().(*types.Signature)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		v := pass.mapOrderSanitized(call)
		if v == nil {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < 32; i++ {
			if sig.Params().At(i) == v {
				params |= 1 << uint(i)
			}
		}
		return true
	})
	var pFact sortsParamFact
	pass.ImportObjectFact(fn, &pFact)
	if params != pFact.Params {
		pFact.Params = params
		pass.ExportObjectFact(fn, &pFact)
		changed = true
	}
	return changed
}

// flagMapOrderSinks reports every determinism-sensitive use of a
// map-iteration-ordered value in decl.
func flagMapOrderSinks(pass *Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	fl := pass.mapOrderFlow(decl.Body)
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, msg string) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, "%s", msg)
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if fl.VarTaint(n.X)&taintMapOrder != 0 && fl.VarTaint(n.Index)&taintRand != 0 {
				report(n.Pos(),
					"seeded rand draw indexes a map-iteration-ordered slice: same-seed runs pick different elements across processes (sort the slice first)")
			}
		case *ast.CallExpr:
			fn := calleeOf(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "mce/internal/durable" && fn.Name() == "AppendFrame":
				for _, arg := range n.Args {
					if orderSensitiveUse(pass, fl, arg, n.Pos()) {
						report(arg.Pos(),
							"map-iteration-ordered value is framed for the wire or the journal: the bytes differ per process, so checksums and golden captures cannot match (sort before encoding)")
					}
				}
			case fn.Pkg().Path() == "fmt" && isOrderedOutputFunc(fn.Name()):
				for i, arg := range n.Args {
					if i == 0 && strings.HasPrefix(fn.Name(), "F") {
						continue // the io.Writer
					}
					if orderSensitiveUse(pass, fl, arg, n.Pos()) {
						report(arg.Pos(),
							"map-iteration-ordered value written to ordered output: lines reorder per process (sort before printing)")
					}
				}
			}
		}
		return true
	})
}

// orderSensitiveUse decides whether passing arg to an output/encoding sink
// is actually order-dependent, biased against false positives:
//
//   - a tainted slice always is — its element order is the tainted
//     property and fmt and the frame serialise it in order;
//   - a tainted scalar is only flagged when it is a map-range key/value
//     printed unconditionally inside its own loop (the "emit every entry in
//     iteration order" shape); a conditional use is usually select-one
//     filtering, which is deterministic, so it is skipped.
//
// Note fmt itself prints map *values* with sorted keys since Go 1.12, so a
// map passed directly is never flagged (it never acquires the taint).
func orderSensitiveUse(pass *Pass, fl *FuncFlow, arg ast.Expr, use token.Pos) bool {
	if fl.VarTaint(arg)&taintMapOrder == 0 {
		return false
	}
	if tv, ok := pass.Pkg.Info.Types[arg]; ok && tv.Type != nil {
		if _, isSlice := types.Unalias(tv.Type).Underlying().(*types.Slice); isSlice {
			return true
		}
	}
	v := usedVar(pass.Pkg.Info, arg)
	if v == nil {
		return false
	}
	rng, ok := fl.Origin[v].(*ast.RangeStmt)
	if !ok || !posInside(use, rng) {
		return false
	}
	conditional := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if posInside(use, n) {
				conditional = true
			}
		}
		return !conditional
	})
	return !conditional
}

// isOrderedOutputFunc reports whether the fmt function writes output whose
// line/field order the caller observes.
func isOrderedOutputFunc(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}
