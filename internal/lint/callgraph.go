package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is the static call graph over every package of one Suite: an
// edge u→v exists when the body of u (including its function literals)
// contains a direct call that resolves to v. Calls through function values,
// interface methods without a static callee, builtins and conversions have
// no edge — the graph under-approximates, which is the right bias for the
// analyses built on it (a missing edge can only suppress propagation, never
// invent a finding).
//
// Nodes are canonical object keys (see objKey), not *types.Func pointers:
// the loader type-checks each package against export data, so the callee
// object a caller package resolves is a different pointer than the defining
// package's own — the key form unifies the two views, which is what makes
// cross-package edges land on the right declaration.
type CallGraph struct {
	callees map[string]map[string]bool
	callers map[string]map[string]bool
	decls   map[string]declSite
}

// declSite locates one function declaration inside its loaded package.
type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
}

// buildCallGraph constructs the graph for the given packages. The walk
// attributes calls inside function literals to the enclosing declaration:
// for the engine's purposes a closure runs on its owner's behalf.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		callees: make(map[string]map[string]bool),
		callers: make(map[string]map[string]bool),
		decls:   make(map[string]declSite),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := objKey(caller)
				g.decls[key] = declSite{pkg: pkg, decl: fd, obj: caller}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeOf(pkg.Info, call); callee != nil {
						g.addEdge(key, objKey(callee))
					}
					return true
				})
			}
		}
	}
	return g
}

func (g *CallGraph) addEdge(from, to string) {
	if g.callees[from] == nil {
		g.callees[from] = make(map[string]bool)
	}
	g.callees[from][to] = true
	if g.callers[to] == nil {
		g.callers[to] = make(map[string]bool)
	}
	g.callers[to][from] = true
}

// Callers returns the declared functions that call fn directly — from any
// loaded package, not just fn's own — in deterministic order.
func (g *CallGraph) Callers(fn *types.Func) []*types.Func {
	return g.resolve(g.callers[objKey(fn)])
}

// resolve maps a key set to its declared functions, sorted by key so every
// consumer iterates deterministically — the suite must never itself exhibit
// the map-order sensitivity it lints for.
func (g *CallGraph) resolve(keys map[string]bool) []*types.Func {
	sorted := make([]string, 0, len(keys))
	for key := range keys {
		if _, ok := g.decls[key]; ok {
			sorted = append(sorted, key)
		}
	}
	sort.Strings(sorted)
	out := make([]*types.Func, len(sorted))
	for i, key := range sorted {
		out[i] = g.decls[key].obj
	}
	return out
}
