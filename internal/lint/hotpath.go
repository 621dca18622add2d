package lint

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
	"strings"
)

// The hot set: hotalloc's foundation. Enumeration roots — the sequential
// and parallel Bron–Kerbosch drivers, the bitset kernels, block analysis,
// the telemetry fast paths — carry a //mce:hotpath annotation on their
// declaration; this pass closes the annotated set over the suite's
// string-keyed cross-package call graph, so "hot" means every function the
// enumeration inner loop can reach, module-wide.
//
// A //mce:coldpath annotation prunes the closure: functions that are
// reachable from a hot root but run per block or per run rather than per
// recursion node (runner construction, option validation) stop propagation
// so their error-formatting and setup allocations do not drown the signal.
//
// Like the call graph itself, the hot set under-approximates: calls through
// function values and interface methods have no edges, so callees reached
// only that way must carry their own annotation (the adjacency
// implementations in mcealg do exactly that).

// hotDirective marks a function as a hot-path root; anything after the
// directive on the same line is a free-form reason.
const hotDirective = "//mce:hotpath"

// coldDirective stops hot-path propagation through the annotated function.
const coldDirective = "//mce:coldpath"

// hotDecl is one hot function declared in a loaded package.
type hotDecl struct {
	decl *ast.FuncDecl
	fn   *types.Func
	key  string
	root string // display name of the annotated root that made it hot
}

// hotInfo is the suite-wide hot-function set, built once per run.
type hotInfo struct {
	hot        map[string]string // objKey -> root display name
	cold       map[string]bool
	declsByPkg map[*Package][]hotDecl
}

// hotData returns the suite's hot-path info, computing it on first use.
func hotData(s *Suite) *hotInfo {
	return s.Memo("hotpath", func() any { return buildHotInfo(s) }).(*hotInfo)
}

// hasDirective reports whether the doc comment carries the given
// //mce:... directive as its own comment line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// funcDisplay renders fn for diagnostics with the import path shortened to
// its base: "(*mcealg.parWorker).bk", "bitset.(*Set).AndCount" style.
func funcDisplay(fn *types.Func) string {
	full := fn.FullName()
	if fn.Pkg() == nil {
		return full
	}
	p := fn.Pkg().Path()
	if !strings.Contains(full, p+".") {
		return full
	}
	if strings.HasPrefix(full, p+".") {
		// Package-level function: qualify with the short package name.
		return path.Base(p) + "." + strings.TrimPrefix(full, p+".")
	}
	// Method: the path is embedded in the receiver type.
	return strings.ReplaceAll(full, p+".", path.Base(p)+".")
}

// budgetFuncName renders fn the way .mcevet/allocbudget.json keys it: the
// package path is carried separately, so the name drops it entirely —
// "New", "(*Set).AndCount", "(*parWorker).bk".
func budgetFuncName(fn *types.Func) string {
	full := fn.FullName()
	if fn.Pkg() == nil {
		return full
	}
	return strings.ReplaceAll(full, fn.Pkg().Path()+".", "")
}

// buildHotInfo scans every loaded package for annotations and closes the
// root set over the call graph.
func buildHotInfo(s *Suite) *hotInfo {
	info := &hotInfo{
		hot:        make(map[string]string),
		cold:       make(map[string]bool),
		declsByPkg: make(map[*Package][]hotDecl),
	}
	type root struct{ key, display string }
	var roots []root
	for _, pkg := range s.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if hasDirective(fd.Doc, coldDirective) {
					info.cold[objKey(fn)] = true
					continue
				}
				if hasDirective(fd.Doc, hotDirective) {
					roots = append(roots, root{key: objKey(fn), display: funcDisplay(fn)})
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].key < roots[j].key })

	g := s.CallGraph()
	for _, r := range roots {
		// BFS per root in sorted order; the first root reaching a function
		// names it in diagnostics, deterministically.
		stack := []string{r.key}
		for len(stack) > 0 {
			key := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, done := info.hot[key]; done || info.cold[key] {
				continue
			}
			info.hot[key] = r.display
			for next := range g.callees[key] {
				if _, done := info.hot[next]; !done && !info.cold[next] {
					stack = append(stack, next)
				}
			}
		}
	}

	for key, rootName := range info.hot {
		site, ok := g.decls[key]
		if !ok {
			continue
		}
		info.declsByPkg[site.pkg] = append(info.declsByPkg[site.pkg], hotDecl{
			decl: site.decl,
			fn:   site.obj,
			key:  key,
			root: rootName,
		})
	}
	for _, decls := range info.declsByPkg {
		sort.Slice(decls, func(i, j int) bool { return decls[i].decl.Pos() < decls[j].decl.Pos() })
	}
	return info
}

// declsIn returns the hot functions declared in pkg, in source order.
func (h *hotInfo) declsIn(pkg *Package) []hotDecl {
	return h.declsByPkg[pkg]
}
