package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The v2 engine tests: dependency ordering, cross-package call-graph edges,
// facts flowing imports→importers, and the raw dataflow pass. Cross-package
// cases run on a throwaway two-package module so the test exercises the
// exact load path production uses (go list + export data), where the
// defining package's objects and the importer's view of them are distinct
// pointers — the identity problem the string-keyed graph and fact store
// exist to solve.

// writeTempModule lays the files out under a fresh module root and returns
// the directory.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir for %s: %v", name, err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	return dir
}

func loadTempModule(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := writeTempModule(t, files)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	return pkgs
}

func twoPackageFiles() map[string]string {
	return map[string]string{
		"lib/lib.go": `package lib

// Keys returns the map's keys in iteration order.
func Keys(set map[string]int) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// Twice calls Keys; summaries must propagate through it too.
func Twice(set map[string]int) []string {
	return Keys(set)
}
`,
		"app/app.go": `package app

import (
	"fmt"

	"tmpmod/lib"
)

// Show prints a map-ordered slice obtained from another package.
func Show(set map[string]int) {
	fmt.Println(lib.Keys(set))
}

// ShowTwice goes through the two-hop helper.
func ShowTwice(set map[string]int) {
	fmt.Println(lib.Twice(set))
}
`,
	}
}

// lookupFunc resolves a package-scope function from a loaded package.
func lookupFunc(t *testing.T, pkgs []*Package, pkgPath, name string) *types.Func {
	t.Helper()
	for _, p := range pkgs {
		if p.PkgPath != pkgPath {
			continue
		}
		if fn, ok := p.Types.Scope().Lookup(name).(*types.Func); ok {
			return fn
		}
		t.Fatalf("%s has no function %s", pkgPath, name)
	}
	t.Fatalf("package %s not loaded", pkgPath)
	return nil
}

func TestSuiteDependencyOrder(t *testing.T) {
	pkgs := loadTempModule(t, twoPackageFiles())
	suite := newSuite(pkgs)
	idx := make(map[string]int)
	for i, p := range suite.Pkgs {
		idx[p.PkgPath] = i
	}
	if idx["tmpmod/lib"] > idx["tmpmod/app"] {
		t.Errorf("dependency order wrong: lib (imported) at %d, app (importer) at %d",
			idx["tmpmod/lib"], idx["tmpmod/app"])
	}
}

func TestCallGraphCrossPackage(t *testing.T) {
	pkgs := loadTempModule(t, twoPackageFiles())
	suite := newSuite(pkgs)
	cg := suite.CallGraph()

	keys := lookupFunc(t, pkgs, "tmpmod/lib", "Keys")
	show := lookupFunc(t, pkgs, "tmpmod/app", "Show")

	// Caller edge crosses the package boundary even though app's view of
	// lib.Keys is a different *types.Func than lib's own.
	callers := cg.Callers(keys)
	names := make([]string, len(callers))
	for i, c := range callers {
		names[i] = c.FullName()
	}
	if len(callers) != 2 {
		t.Fatalf("Callers(lib.Keys) = %v, want [app.Show lib.Twice]", names)
	}

	if !cg.callees[objKey(show)][objKey(keys)] {
		t.Errorf("app.Show's callees are missing lib.Keys: %v", cg.callees[objKey(show)])
	}

	// The callee key resolves back to the defining package's declaration.
	if d := cg.decls[objKey(keys)]; d.pkg == nil || d.pkg.PkgPath != "tmpmod/lib" || d.decl.Name.Name != "Keys" {
		t.Errorf("declaration of lib.Keys = %+v", d)
	}
}

func TestFactsFlowAcrossPackages(t *testing.T) {
	pkgs := loadTempModule(t, twoPackageFiles())
	diags, err := RunAnalyzers(pkgs, []*Analyzer{MapOrder})
	if err != nil {
		t.Fatalf("running maporder: %v", err)
	}
	// Both call shapes in app must be flagged: the taint travels through
	// lib.Keys's exported summary, and through lib.Twice's transitively.
	var appFindings int
	for _, d := range diags {
		if d.Analyzer != "maporder" {
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
		if strings.Contains(d.Pos.Filename, filepath.Join("app", "app.go")) {
			appFindings++
		}
	}
	if appFindings != 2 {
		t.Errorf("maporder found %d finding(s) in app, want 2 (facts not crossing the package boundary?):\n%v",
			appFindings, diags)
	}
}

func TestFactStoreObjectIdentity(t *testing.T) {
	pkgs := loadTempModule(t, twoPackageFiles())
	suite := newSuite(pkgs)

	// The defining package's source-checked object...
	libKeys := lookupFunc(t, pkgs, "tmpmod/lib", "Keys")
	// ...and the importer's export-data view of the same declaration.
	var appView *types.Func
	for _, p := range pkgs {
		if p.PkgPath != "tmpmod/app" {
			continue
		}
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "tmpmod/lib" {
				appView = imp.Scope().Lookup("Keys").(*types.Func)
			}
		}
	}
	if appView == nil {
		t.Fatal("could not resolve app's view of lib.Keys")
	}
	if libKeys == appView {
		t.Fatal("test premise broken: both views are the same object; the loader changed")
	}

	pass := &Pass{Suite: suite}
	pass.ExportObjectFact(libKeys, &mapOrderedFact{Ret: true})
	var got mapOrderedFact
	if !pass.ImportObjectFact(appView, &got) || !got.Ret {
		t.Errorf("fact exported on the source view was not importable through the export-data view")
	}
}

// TestLoadExternalTestImportsBack pins the loader on the shape that split
// type identities before: package a has in-package test files (so its test
// binary links a test-augmented variant), and its external test imports
// both a test-only helper of a and package b, which itself imports a. The go
// tool recompiles b against the augmented a for that binary; both imports
// must resolve to that one variant, or the type-check fails with "cannot
// use a.T as a.T".
func TestLoadExternalTestImportsBack(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"a/a.go":           "package a\n\ntype T struct{ N int }\n",
		"a/export_test.go": "package a\n\nfunc NewForTest(n int) T { return T{N: n} }\n",
		"b/b.go":           "package b\n\nimport \"tmpmod/a\"\n\nfunc Use(t a.T) int { return t.N }\n",
		"a/x_test.go": `package a_test

import (
	"testing"

	"tmpmod/a"
	"tmpmod/b"
)

func TestUse(t *testing.T) {
	if b.Use(a.NewForTest(1)) != 1 {
		t.Fatal("wrong")
	}
}
`,
	})
	pkgs, err := Load(dir, "./a")
	if err != nil {
		t.Fatalf("loading one package with an import-back external test: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.PkgPath)
	}
	if strings.Join(got, " ") != "tmpmod/a tmpmod/a_test" {
		t.Errorf("loaded %v, want [tmpmod/a tmpmod/a_test]", got)
	}
}

// TestLockOrderCycleAcrossPackages builds a lock-order cycle that spans two
// packages: b.Inverted1 holds b's lock and acquires a.Mu one call deep
// through a.LockMu, and b.Inverted2 holds a.Mu and acquires b's lock. No
// whole-module lock graph is needed to break it: lockbalance reports each
// half in its own body, the helper that returns still holding a.Mu and the
// direct nested acquisition.
func TestLockOrderCycleAcrossPackages(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"a/a.go": `package a

import "sync"

// Mu guards package a's registry.
var Mu sync.Mutex

// LockMu and UnlockMu are the exported acquisition helpers: callers in
// other packages never touch Mu directly.
func LockMu()   { Mu.Lock() }
func UnlockMu() { Mu.Unlock() }
`,
		"b/b.go": `package b

import (
	"sync"

	"tmpmod/a"
)

var mu sync.Mutex

// Inverted1 holds b's lock and then acquires a.Mu one call deep.
func Inverted1() {
	mu.Lock()
	defer mu.Unlock()
	a.LockMu()
	defer a.UnlockMu()
}

// Inverted2 holds a.Mu and then acquires b's lock: the reverse order.
func Inverted2() {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
}
`,
	})
	diags, err := RunAnalyzers(pkgs, []*Analyzer{LockBalance})
	if err != nil {
		t.Fatalf("running lockbalance: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostic(s), want 2 (one per half of the cycle):\n%v", len(diags), diags)
	}
	var leak, nested bool
	for _, d := range diags {
		switch {
		case strings.HasSuffix(d.Pos.Filename, filepath.Join("a", "a.go")) &&
			strings.Contains(d.Message, "Mu.Lock() is not immediately deferred"):
			leak = true
		case strings.HasSuffix(d.Pos.Filename, filepath.Join("b", "b.go")) &&
			strings.Contains(d.Message, "mu.Lock() while a.Mu is held"):
			nested = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !leak {
		t.Errorf("the helper that returns holding a.Mu was not reported: %v", diags)
	}
	if !nested {
		t.Errorf("the nested acquisition of mu under a.Mu was not reported: %v", diags)
	}
}

// checkSnippet type-checks one inline source file and returns the package.
func checkSnippet(t *testing.T, src string) *Package {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snippet.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("writing snippet: %v", err)
	}
	pkg, err := LoadFiles(moduleRoot(), path)
	if err != nil {
		t.Fatalf("checking snippet: %v", err)
	}
	return pkg
}

func TestDataflowTaintAndSanitize(t *testing.T) {
	pkg := checkSnippet(t, `package p

import "sort"

func f(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	clean := make([]string, 0, len(m))
	for k := range m {
		clean = append(clean, k)
	}
	sort.Strings(clean)
	other := []string{"a"}
	_ = other
	copied := keys
	return copied
}
`)
	var decl *ast.FuncDecl
	for _, d := range pkg.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			decl = fd
		}
	}
	const tag Taint = 1
	cfg := &FlowConfig{
		Info: pkg.Info,
		RangeSeed: func(rng *ast.RangeStmt, _ Taint) Taint {
			if isMapType(pkg.Info, rng.X) {
				return tag
			}
			return 0
		},
		Sanitize: func(call *ast.CallExpr) *types.Var {
			if isPkgFunc(pkg.Info, call, "sort", "Strings") && len(call.Args) > 0 {
				return usedVar(pkg.Info, call.Args[0])
			}
			return nil
		},
	}
	fl := analyzeFlow(cfg, decl.Body)

	taintOf := func(name string) Taint {
		for v, tn := range fl.Vars {
			if v.Name() == name {
				return tn
			}
		}
		return 0
	}
	if taintOf("keys")&tag == 0 {
		t.Error("keys should carry the map-order taint")
	}
	if taintOf("copied")&tag == 0 {
		t.Error("copied should inherit the taint through assignment")
	}
	if taintOf("clean") != 0 {
		t.Error("clean was sorted and must end the analysis untainted")
	}
	if taintOf("other") != 0 {
		t.Error("other never touched a map and must stay untainted")
	}
	if fl.Ret&tag == 0 {
		t.Error("the returned value is tainted, so Ret must be")
	}
	if _, ok := fl.Origin[nil]; ok {
		t.Error("Origin must not hold a nil key")
	}
}

func TestStaleIgnoreDirectives(t *testing.T) {
	moduleDir := moduleRoot()
	pkg, err := LoadFiles(moduleDir, filepath.Join(moduleDir, "internal", "lint", "testdata", "staleignore", "stale.go"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var stale, unknown, other int
	for _, d := range diags {
		switch {
		case d.Analyzer == "staleignore" && strings.Contains(d.Message, "stale lint:ignore"):
			stale++
		case d.Analyzer == "staleignore" && strings.Contains(d.Message, "unknown analyzer"):
			unknown++
		default:
			other++
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if stale != 1 || unknown != 1 {
		t.Errorf("got %d stale + %d unknown-analyzer diagnostics, want 1 + 1:\n%v", stale, unknown, diags)
	}
}

// TestStaleIgnoreNotJudgedOnPartialRun pins the safety rule: when the named
// analyzer did not run, an unused directive must not be reported stale.
func TestStaleIgnoreNotJudgedOnPartialRun(t *testing.T) {
	moduleDir := moduleRoot()
	pkg, err := LoadFiles(moduleDir, filepath.Join(moduleDir, "internal", "lint", "testdata", "staleignore", "stale.go"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	// lockbalance runs, maporder does not: the maporder directives are not
	// judgeable, so only the unknown-analyzer one (always judgeable) shows.
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{LockBalance, StaleIgnore})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "stale lint:ignore") {
			t.Errorf("directive judged stale although maporder never ran: %s", d)
		}
	}
}
