// Package lint is a repo-specific static-analysis suite: a small, dependency
// free re-implementation of the golang.org/x/tools/go/analysis model (the
// module has no external dependencies, so the real one cannot be vendored)
// plus six analyzers that machine-check invariants the engine's
// correctness and performance arguments lean on:
//
//   - sortedadj: adjacency slices returned by graph.Neighbors are read-only
//     outside internal/graph (the binary-search sortedness invariant behind
//     HasEdge, hence behind Lemma 1 and Theorem 1);
//   - maporder: map-iteration-ordered values must not flow into seeded
//     rand draws, wire frames or ordered output without an intervening
//     sort (deterministic plans and digests across processes);
//   - golifecycle: every `go` statement whose goroutine blocks on channels
//     must reach a cancellation path through its own package's call graph;
//   - lockbalance: every manual mu.Lock() is released on every return path,
//     and no Lock is taken while another lock is held in the same body;
//   - hotalloc: compiler-proven heap allocations in functions reachable from
//     a //mce:hotpath root must be reconciled against the committed budget
//     .mcevet/allocbudget.json;
//   - staleignore: a //lint:ignore directive that no longer suppresses any
//     finding is itself a finding.
//
// The whole-suite layer under them is a static call graph (callgraph.go), a
// per-function forward dataflow pass (dataflow.go), cross-package facts
// (facts.go), the hot-path closure (hotpath.go) and the escape-analysis
// ingester (escape.go). The suite runs via cmd/mcevet (`make lint`) and in
// the analyzers' own analysistest-style fixture tests.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer: Run inspects a
// single package through its Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:ignore
	// directives; it is a lowercase single word.
	Name string
	// Doc is a one-paragraph description: the invariant protected and why
	// the repo cares.
	Doc string
	// Run performs the check. It reports findings through the Pass and
	// returns an error only for analysis failures, never for findings.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package, mirroring analysis.Pass.
// Suite exposes the whole-run state — every loaded package, the call graph
// and the fact store — so analyzers can reason across package boundaries.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Suite    *Suite

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in reporting order, with the
// staleignore meta-pass last.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SortedAdj, MapOrder,
		GoLifecycle, LockBalance, HotAlloc,
		StaleIgnore,
	}
}

// ignoreDirective is a parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string // names, or ["*"]
	line      int      // the line the directive suppresses (its own or next)
	file      string
	justified bool
	pos       token.Pos
	pkg       *Package
	used      bool // suppressed at least one finding this run
}

// ignoreRE recognises the directive form only — `//lint:ignore` with no
// space, staticcheck-style — so prose that merely mentions lint:ignore
// mid-comment is never parsed as a directive.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// parseIgnores extracts every lint:ignore directive of a file. A directive
// suppresses matching diagnostics on its own line (trailing comment) or on
// the first following non-comment line (preceding comment). The analyzer
// list is comma-separated; "*" matches all. A directive must carry a
// justification — the why is the point — or it is itself reported.
func parseIgnores(pkg *Package, f *ast.File) []ignoreDirective {
	fset := pkg.Fset
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for i, c := range cg.List {
			m := ignoreRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			// The suppressed line: the last comment line of the group maps
			// to the next source line; earlier lines and trailing comments
			// map to their own line. Covering both the directive's line and
			// the next handles every placement without position bookkeeping.
			line := pos.Line
			if i == len(cg.List)-1 {
				line = fset.Position(cg.End()).Line
			}
			out = append(out, ignoreDirective{
				analyzers: strings.Split(m[1], ","),
				line:      line,
				file:      pos.Filename,
				justified: strings.TrimSpace(m[2]) != "",
				pos:       c.Pos(),
				pkg:       pkg,
			})
		}
	}
	return out
}

func (d *ignoreDirective) matches(diag Diagnostic) bool {
	if diag.Pos.Filename != d.file || (diag.Pos.Line != d.line && diag.Pos.Line != d.line+1) {
		return false
	}
	for _, name := range d.analyzers {
		if name == "*" || name == diag.Analyzer {
			return true
		}
	}
	return false
}

// RunAnalyzers applies the analyzers to every package, filters findings
// through the lint:ignore directives, and returns the remainder sorted by
// position. Unjustified directives are reported as findings themselves, so
// an ignore can never silently rot into a blanket waiver; when staleignore
// is among the analyzers, justified directives that suppressed nothing are
// reported too (see staleignore.go).
//
// Packages are analysed in dependency order (imports before importers), so
// facts exported while analysing a package are visible to the analyses of
// every package that imports it.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	suite := newSuite(pkgs)
	var diags []Diagnostic
	var allIgnores []*ignoreDirective
	ignoresByPkg := make(map[*Package][]*ignoreDirective)
	for _, pkg := range suite.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseIgnores(pkg, f) {
				d := d
				ignoresByPkg[pkg] = append(ignoresByPkg[pkg], &d)
				allIgnores = append(allIgnores, &d)
			}
		}
		for _, d := range ignoresByPkg[pkg] {
			if !d.justified {
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					Pos:      pkg.Fset.Position(d.pos),
					Message:  "lint:ignore directive needs a justification after the analyzer name",
				})
			}
		}
	}
	for _, pkg := range suite.Pkgs {
		ignores := ignoresByPkg[pkg]
		for _, a := range analyzers {
			if a.Run == nil {
				continue // meta-analyzers (staleignore) run after the loop
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Suite: suite}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		next:
			for _, diag := range pass.diags {
				for _, d := range ignores {
					if d.justified && d.matches(diag) {
						d.used = true
						continue next
					}
				}
				diags = append(diags, diag)
			}
		}
	}
	for _, a := range analyzers {
		if a == StaleIgnore {
			diags = append(diags, staleIgnoreDiags(suite, analyzers, allIgnores)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
