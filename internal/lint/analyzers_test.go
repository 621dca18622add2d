package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzersOnFixtures drives every analyzer over its annotated fixtures:
// each case has at least one flagged and one clean file, and the // want
// annotations are checked in both directions (missing and unexpected
// findings both fail). Fixture sets in separate sublists are loaded as
// separate packages.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		loads    [][]string
	}{
		{SortedAdj, [][]string{{"sortedadj/flagged.go", "sortedadj/clean.go"}}},
		{MapOrder, [][]string{{"maporder/flagged.go", "maporder/clean.go", "maporder/suppressed.go"}}},
		{GoLifecycle, [][]string{{"golifecycle/flagged.go", "golifecycle/clean.go", "golifecycle/suppressed.go"}}},
		{LockBalance, [][]string{{"lockbalance/flagged.go", "lockbalance/clean.go"}}},
		{HotAlloc, [][]string{{"hotalloc/flagged.go", "hotalloc/budgeted.go", "hotalloc/clean.go", "hotalloc/suppressed.go"}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			t.Parallel()
			for _, files := range tc.loads {
				RunFixture(t, tc.analyzer, files...)
			}
		})
	}
}

// TestHotAllocFlagsBoxing pins that boxing into an interface, fmt calls and
// a hot-loop closure capture reach hotalloc as unbudgeted heap sites: no
// separate boxing rule is needed while the compiler's escape analysis
// reports every one of them. budgeted.go rides along so the fixture
// budget's one entry still names a live site.
func TestHotAllocFlagsBoxing(t *testing.T) {
	t.Parallel()
	RunFixture(t, HotAlloc, "hotalloc/boxing.go", "hotalloc/budgeted.go")
}

// TestHotAllocFollowsGenericCalls pins that the hot set crosses generic
// calls — an instantiated method, an explicit instantiation — to the
// generic body, and that an allocation there is reported once, not once per
// shape the compiler analysed the body at.
func TestHotAllocFollowsGenericCalls(t *testing.T) {
	t.Parallel()
	RunFixture(t, HotAlloc, "hotalloc/generic.go", "hotalloc/budgeted.go")
	dir := filepath.Join(moduleRoot(), "internal", "lint", "testdata", "hotalloc")
	pkg, err := LoadFiles(moduleRoot(), filepath.Join(dir, "generic.go"), filepath.Join(dir, "budgeted.go"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("%d findings, want 2 — one per allocation site, whatever the shapes:\n%v", len(diags), diags)
	}
}

// TestLockBalanceFlagsNestedLock pins the lock-order rule lockbalance
// enforces per body: a Lock while another lock is held is reported, two
// locks taken one after the other are not.
func TestLockBalanceFlagsNestedLock(t *testing.T) {
	t.Parallel()
	RunFixture(t, LockBalance, "lockbalance/nested.go")
}

// TestSuiteIsComplete pins the advertised analyzer set: the Makefile gate
// and the docs both promise these six. An analyzer that a cheaper gate
// (a type error, a zero-allocation test, a contract test) already covers
// does not belong here; DESIGN.md §9 says what fails without each one.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{
		"sortedadj", "maporder",
		"golifecycle", "lockbalance", "hotalloc",
		"staleignore",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q is missing Doc", a.Name)
		}
		// staleignore is the one meta-analyzer: it has no per-package Run
		// and is dispatched by RunAnalyzers after the suite completes.
		if a.Run == nil && a.Name != "staleignore" {
			t.Errorf("analyzer %q is missing Run", a.Name)
		}
	}
}

// TestSelfClean runs the full suite over the repo itself: the tree must stay
// green, because make check gates merges on exactly this invocation.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(moduleRoot(), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n  " + d.String())
		}
		t.Errorf("the tree has %d unfixed finding(s); fix them or add a justified lint:ignore:%s", len(diags), b.String())
	}
}
