package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotalloc: no unbudgeted heap allocation in a hot function. The paper's
// cost model is per-recursion-node — §5's analysis charges every node of
// the Bron–Kerbosch tree a constant-ish amount of work — so an allocation
// that the compiler proves escapes inside the hot set multiplies with the
// node count and shows up directly in enumeration throughput. The gate is
// a reconciliation, not a ban: sites listed in .mcevet/allocbudget.json
// (per-subproblem snapshots, one-time label stores) pass, new sites fail,
// and entries with no remaining site are flagged as stale so the budget
// never rots into a waiver.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "heap allocation in a hot-path function that is not reconciled " +
		"against the committed allocation budget (.mcevet/allocbudget.json); " +
		"run `mcevet -update-allocbudget` to accept intentional sites",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	h := hotData(pass.Suite)
	decls := h.declsIn(pass.Pkg)
	budget, err := budgetFor(pass.Suite, pass.Pkg)
	if err != nil {
		return err
	}

	observed := make(map[string]int)
	if len(decls) > 0 {
		esc, err := escapeFor(pass.Suite, pass.Pkg)
		if err != nil {
			return err
		}
		for _, hd := range decls {
			fnName := budgetFuncName(hd.fn)
			for _, site := range esc.byFunc[hd.key] {
				key := budgetKey(pass.Pkg.PkgPath, fnName, site.msg)
				observed[key]++
				if observed[key] <= budget.counts[key] {
					continue
				}
				pass.Reportf(posFor(pass.Pkg, site.pos),
					"hot-path allocation not in budget: %s in %s (hot via %s); run mcevet -update-allocbudget to accept it",
					site.msg, funcDisplay(hd.fn), hd.root)
			}
		}
	}

	// Stale entries: budget lines scoped to this package with no matching
	// site left — the allocation was fixed (or the annotation removed) but
	// the waiver stayed behind. One case is undecidable on a partial load:
	// a function that still exists but is not hot *here* may be heated by
	// an unloaded importer (bitset.Slice is hot only via mcealg's roots),
	// so it is skipped unless the load was importer-closed; the full-tree
	// drift gate (`make allocbudget-check`, CI) owns that case.
	hotNames := make(map[string]bool, len(decls))
	for _, hd := range decls {
		hotNames[budgetFuncName(hd.fn)] = true
	}
	var declaredNames map[string]bool // built lazily: only partial loads consult it
	for _, key := range budget.entriesFor(pass.Pkg.PkgPath) {
		if observed[key] >= budget.counts[key] {
			continue
		}
		if fn := budgetFuncOf(key, pass.Pkg.PkgPath); !hotNames[fn] && !pass.Pkg.ImporterClosed {
			if declaredNames == nil {
				declaredNames = declaredFuncNames(pass.Pkg)
			}
			if declaredNames[fn] {
				continue
			}
		}
		detail := "fewer sites than budgeted"
		if observed[key] == 0 {
			detail = "no such allocation site remains"
		}
		pass.diags = append(pass.diags, Diagnostic{
			Analyzer: pass.Analyzer.Name,
			Pos:      token.Position{Filename: budget.path, Line: budget.lineOf(key)},
			Message: "stale allocation budget entry " + key + ": " + detail +
				"; run mcevet -update-allocbudget to drop it",
		})
	}
	return nil
}

// budgetFuncOf extracts the function segment of a budget key
// ("<pkgpath>::<func>::<msg>") scoped to pkgPath.
func budgetFuncOf(key, pkgPath string) string {
	rest := strings.TrimPrefix(key, pkgPath+"::")
	if i := strings.Index(rest, "::"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// declaredFuncNames collects every function declared in pkg under its
// budget-key name ("New", "(*Set).AndCount").
func declaredFuncNames(pkg *Package) map[string]bool {
	names := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				names[budgetFuncName(fn)] = true
			}
		}
	}
	return names
}

// posFor converts an absolute compiler position back to a token.Pos in the
// package's file set, best effort (falls back to the file start when the
// offset cannot be recovered).
func posFor(pkg *Package, p token.Position) token.Pos {
	var best token.Pos = token.NoPos
	pkg.Fset.Iterate(func(f *token.File) bool {
		if f.Name() != p.Filename {
			return true
		}
		if p.Line >= 1 && p.Line <= f.LineCount() {
			best = f.LineStart(p.Line)
			if p.Column > 1 {
				pos := best + token.Pos(p.Column-1)
				if int(pos) < f.Base()+f.Size() && pkg.Fset.Position(pos).Line == p.Line {
					best = pos
				}
			}
		} else {
			best = f.Pos(0)
		}
		return false
	})
	return best
}
