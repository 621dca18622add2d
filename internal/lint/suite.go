package lint

import "sync"

// Suite is the whole-run view every analyzer gets: all loaded packages (in
// dependency order), the shared fact store, the lazily built call graph, and
// a memo for whole-suite results (the hot set, escape data, budgets). A
// Suite is built once per RunAnalyzers call and shared by every Pass of that
// run.
type Suite struct {
	// Pkgs holds the loaded packages in dependency order: a package appears
	// after every package it imports that is also in the load. Analyzers
	// run in this order, so facts exported while analysing an imported
	// package are visible when its importers are analysed.
	Pkgs []*Package

	facts *factStore

	cgOnce sync.Once
	cg     *CallGraph

	memoMu sync.Mutex
	memo   map[string]any
}

// newSuite orders the packages and prepares the shared state.
func newSuite(pkgs []*Package) *Suite {
	return &Suite{
		Pkgs:  dependencyOrder(pkgs),
		facts: newFactStore(),
		memo:  make(map[string]any),
	}
}

// CallGraph returns the suite-wide static call graph, built on first use.
func (s *Suite) CallGraph() *CallGraph {
	s.cgOnce.Do(func() { s.cg = buildCallGraph(s.Pkgs) })
	return s.cg
}

// Memo returns the value cached under key, computing it with build on first
// request. Whole-suite analyses use it to scan all packages exactly once no
// matter how many per-package passes ask.
func (s *Suite) Memo(key string, build func() any) any {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := build()
	s.memo[key] = v
	return v
}

// dependencyOrder sorts packages so imports precede importers (ties broken
// by the input order, which Load keeps alphabetical — the result is
// deterministic for a given load). Imports are matched by path: the
// imported *types.Package is the export-data view, not the source-checked
// one in pkgs.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	ordered := make([]*Package, 0, len(pkgs))
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // done, or an import cycle (go forbids them anyway)
		}
		state[p] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p] = 2
		ordered = append(ordered, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ordered
}
