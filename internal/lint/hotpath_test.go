package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The perf-layer engine tests: the -m=2 parser, the nearest-ancestor budget
// resolution, and the hot set crossing package boundaries through the
// string-keyed call graph — the same two-views identity problem the other
// fact passes solve, exercised here end to end against the real toolchain.

func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# tmpmod/lib",
		"lib/lib.go:4:6: can inline Grow with cost 12",
		"lib/lib.go:9:6: leaking param: xs to result ~r0 level=0",
		"lib/lib.go:10:12: make([]int, n) escapes to heap:",
		"lib/lib.go:10:12:   flow: {heap} = &{storage for make([]int, n)}:",
		"lib/lib.go:10:12:     from make([]int, n) (spill) at lib/lib.go:10:12",
		"lib/lib.go:10:12: make([]int, n) escapes to heap",
		"lib/lib.go:12:2: v escapes to heap:",
		"lib/lib.go:12:2: moved to heap: v",
		"lib/lib.go:14:9: new(T) does not escape",
	}, "\n")
	sites := parseEscapeOutput([]byte(out), "/mod")
	if len(sites) != 2 {
		t.Fatalf("parsed %d sites, want 2: %+v", len(sites), sites)
	}
	if sites[0].msg != "make([]int, n) escapes to heap" || sites[0].pos.Line != 10 {
		t.Errorf("sites[0] = %+v, want the make escape at line 10", sites[0])
	}
	if sites[1].msg != "moved to heap: v" || sites[1].pos.Line != 12 {
		t.Errorf("sites[1] = %+v, want the moved-to-heap at line 12", sites[1])
	}
	for _, s := range sites {
		if s.pos.Filename != filepath.Join("/mod", "lib", "lib.go") {
			t.Errorf("site %+v: relative path not resolved against the build dir", s)
		}
	}
}

// TestParseEscapeOutputFoldsShapes: a generic body is analysed once per
// GC shape, and each copy names its shape; the copies are one site.
func TestParseEscapeOutputFoldsShapes(t *testing.T) {
	out := strings.Join([]string{
		"lib/gen.go:9:11: make([]go.shape.[2]uint64, n) escapes to heap",
		"lib/gen.go:9:11: make([]go.shape.[]uint64, n) escapes to heap",
		"lib/gen.go:9:11: make([]go.shape.*uint8, n) escapes to heap",
		"lib/gen.go:12:9: &frame[go.shape.[4]uint64]{...} escapes to heap",
		"lib/gen.go:12:9: &frame[go.shape.int]{...} escapes to heap",
	}, "\n")
	sites := parseEscapeOutput([]byte(out), "/mod")
	if len(sites) != 2 {
		t.Fatalf("parsed %d sites, want 2: %+v", len(sites), sites)
	}
	if sites[0].msg != "make([]go.shape, n) escapes to heap" || sites[1].msg != "&frame[go.shape]{...} escapes to heap" {
		t.Errorf("sites = %+v, want the shapes written as go.shape", sites)
	}
}

func TestFindBudgetFileWalksUp(t *testing.T) {
	root := t.TempDir()
	deep := filepath.Join(root, "internal", "mcealg")
	if err := os.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	if got := findBudgetFile(deep); got != "" {
		t.Fatalf("findBudgetFile with no budget = %q, want empty", got)
	}
	path := filepath.Join(root, DefaultBudgetPath)
	entries := []BudgetEntry{
		{Site: "mce/internal/mcealg::(*parWorker).split::make([]int32, n) escapes to heap", Count: 2, Note: "donation snapshot"},
	}
	if err := WriteAllocBudget(path, entries); err != nil {
		t.Fatal(err)
	}
	if got := findBudgetFile(deep); got != path {
		t.Fatalf("findBudgetFile = %q, want %q", got, path)
	}

	b, err := loadBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.counts[entries[0].Site] != 2 {
		t.Errorf("count = %d, want 2", b.counts[entries[0].Site])
	}
	if line := b.lineOf(entries[0].Site); line <= 1 {
		t.Errorf("lineOf placed the entry at line %d, want a line inside the file", line)
	}
	scoped := b.entriesFor("mce/internal/mcealg")
	if len(scoped) != 1 {
		t.Errorf("entriesFor returned %v, want the one mcealg entry", scoped)
	}
	if len(b.entriesFor("mce/internal/mcealg2")) != 0 || len(b.entriesFor("mce/internal")) != 0 {
		t.Error("entriesFor must match the package path exactly, not by prefix")
	}

	// Round trip through the exported loader, preserving notes.
	loaded, err := LoadAllocBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Note != "donation snapshot" {
		t.Errorf("LoadAllocBudget = %+v, want the written entry with its note", loaded)
	}
	if missing, err := LoadAllocBudget(filepath.Join(root, "nope.json")); err != nil || missing != nil {
		t.Errorf("LoadAllocBudget on a missing file = %v, %v; want empty, nil", missing, err)
	}
}

// hotTempModule is a two-package module where the root annotation lives in
// the importer and the allocations live in the dependency.
func hotTempModule() map[string]string {
	return map[string]string{
		"hot/hot.go": `package hot

import "tmpmod/alloc"

// Drive is the enumeration root of this module.
//
//mce:hotpath test root
func Drive(n int) int {
	return len(alloc.Grow(n)) + alloc.Setup(n)
}
`,
		"alloc/alloc.go": `package alloc

// Grow is hot via hot.Drive and allocates.
//
//go:noinline
func Grow(n int) []int {
	return make([]int, n)
}

// Setup is reachable but pruned by the coldpath annotation.
//
//mce:coldpath per-run setup
//go:noinline
func Setup(n int) int {
	return len(make([]byte, n))
}
`,
	}
}

func TestHotPathFactsCrossPackages(t *testing.T) {
	pkgs := loadTempModule(t, hotTempModule())
	suite := newSuite(pkgs)
	h := hotData(suite)

	grow := lookupFunc(t, pkgs, "tmpmod/alloc", "Grow")
	setup := lookupFunc(t, pkgs, "tmpmod/alloc", "Setup")
	drive := lookupFunc(t, pkgs, "tmpmod/hot", "Drive")

	if _, ok := h.hot[objKey(drive)]; !ok {
		t.Error("the annotated root is not in the hot set")
	}
	if root, ok := h.hot[objKey(grow)]; !ok || root != "hot.Drive" {
		t.Errorf("alloc.Grow hot=%v root=%q, want hot via hot.Drive", ok, root)
	}
	if _, ok := h.hot[objKey(setup)]; ok {
		t.Error("coldpath-annotated alloc.Setup leaked into the hot set")
	}
}

func TestHotAllocCrossPackageBudgetCycle(t *testing.T) {
	dir := writeTempModule(t, hotTempModule())
	load := func() []*Package {
		pkgs, err := Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading temp module: %v", err)
		}
		return pkgs
	}

	// No budget file: the dependency's hot allocation is flagged, the
	// coldpath one is not.
	diags, err := RunAnalyzers(load(), []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatalf("hotalloc: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d finding(s) without a budget, want 1:\n%v", len(diags), diags)
	}
	msg := diags[0].Message
	for _, frag := range []string{"make([]int, n) escapes to heap", "alloc.Grow", "hot via hot.Drive"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("finding %q is missing %q", msg, frag)
		}
	}

	// Accept the site the way the driver does: collect and commit.
	entries, err := CollectAllocBudget(load(), nil)
	if err != nil {
		t.Fatalf("CollectAllocBudget: %v", err)
	}
	if len(entries) != 1 || entries[0].Site != "tmpmod/alloc::Grow::make([]int, n) escapes to heap" {
		t.Fatalf("collected %+v, want the one Grow site", entries)
	}
	budgetPath := filepath.Join(dir, DefaultBudgetPath)
	if err := WriteAllocBudget(budgetPath, entries); err != nil {
		t.Fatal(err)
	}
	diags, err = RunAnalyzers(load(), []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatalf("hotalloc with budget: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("budgeted run still has findings:\n%v", diags)
	}

	// A partial load — the alloc package alone, without package hot — must
	// not misread the budget entry as stale: nothing in the load heats
	// Grow, but the importer holding the hot root simply is not in the
	// unit, and staleness is only decidable under an importer-closed view.
	partial, err := Load(dir, "./alloc")
	if err != nil {
		t.Fatalf("partial load: %v", err)
	}
	diags, err = RunAnalyzers(partial, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatalf("hotalloc on partial load: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("partial load misreports staleness:\n%v", diags)
	}

	// Fix the allocation (drop the hot call): the budget entry goes stale
	// and the gate fails again until the file is regenerated.
	hotSrc := `package hot

import "tmpmod/alloc"

// Drive is the enumeration root of this module.
//
//mce:hotpath test root
func Drive(n int) int {
	return alloc.Setup(n)
}
`
	if err := os.WriteFile(filepath.Join(dir, "hot", "hot.go"), []byte(hotSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err = RunAnalyzers(load(), []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatalf("hotalloc after fix: %v", err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale allocation budget entry") {
		t.Fatalf("got %v, want one stale-entry finding", diags)
	}
	if diags[0].Pos.Filename != budgetPath {
		t.Errorf("stale finding points at %s, want the budget file %s", diags[0].Pos.Filename, budgetPath)
	}
}
