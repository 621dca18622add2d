package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module so the driver can
// be exercised end to end (go list + type-check + analyze) without touching
// the real tree.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":  "module mcevetfixture\n\ngo 1.22\n",
		"main.go": src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	return dir
}

// leakyLock is a module whose one function never releases its lock: a
// lockbalance finding.
const leakyLock = `package main

import "sync"

var mu sync.Mutex

func main() {
	mu.Lock()
}
`

func TestListExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0 (stderr: %s)", code, errb.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := "sortedadj maporder golifecycle lockbalance hotalloc staleignore"
	if strings.Join(got, " ") != want {
		t.Errorf("-list names %v, want exactly %s", got, want)
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("run(-run nope) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr does not explain the failure: %s", errb.String())
	}
}

// TestSeededViolationFailsTheGate is the acceptance check for the merge
// gate: a tree with a planted invariant violation must make the driver exit
// non-zero and name the analyzer.
func TestSeededViolationFailsTheGate(t *testing.T) {
	dir := writeModule(t, leakyLock)
	var out, errb strings.Builder
	code := run([]string{"-C", dir, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run on seeded violation = %d, want 1 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "lockbalance") || !strings.Contains(out.String(), "mu.Lock()") {
		t.Errorf("diagnostic does not name the analyzer and the leaked lock:\n%s", out.String())
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, `package main

import "fmt"

func main() {
	fmt.Println("clean")
}
`)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != 0 {
		t.Fatalf("run on clean module = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
}

// TestSARIFOutput checks the -sarif report parses and carries the fields
// GitHub code scanning requires: schema version, driver name, rule metadata,
// and a physical location per result.
func TestSARIFOutput(t *testing.T) {
	dir := writeModule(t, leakyLock)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run -sarif = %d, want 1 (stderr: %s)", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "mcevet" {
		t.Fatalf("SARIF driver missing or misnamed:\n%s", out.String())
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("SARIF report has no results for a seeded violation")
	}
	for _, res := range log.Runs[0].Results {
		if !rules[res.RuleID] {
			t.Errorf("result ruleId %q has no matching rule entry", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result %q has %d locations, want 1", res.RuleID, len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.ArtifactLocation.URIBaseID)
		}
		if filepath.IsAbs(loc.ArtifactLocation.URI) || loc.Region.StartLine <= 0 {
			t.Errorf("location not repo-relative with a line: %+v", loc)
		}
	}
}

// TestRunAcceptsPackagePatterns pins the -run grammar: analyzer names and
// package patterns mix freely in one flag value.
func TestRunAcceptsPackagePatterns(t *testing.T) {
	dir := writeModule(t, leakyLock)
	// lockbalance selected alongside the pattern: the violation is found.
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-run", "lockbalance,./..."}, &out, &errb); code != 1 {
		t.Fatalf("run(-run lockbalance,./...) = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "lockbalance") {
		t.Errorf("finding does not name lockbalance:\n%s", out.String())
	}
	// Only maporder selected: the lockbalance violation is invisible.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-run", "maporder,./..."}, &out, &errb); code != 0 {
		t.Fatalf("run(-run maporder,./...) = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
}

// TestAllocBudgetCycle drives the perf gate end to end, pinning the
// acceptance criterion of the hot-path layer: a hot allocation fails until
// -update-allocbudget accepts it, deleting the budget entry re-arms the
// gate, and a planted fmt call in a hot loop fails as a new, unbudgeted
// site.
func TestAllocBudgetCycle(t *testing.T) {
	dir := writeModule(t, `package main

// Enumerate is this module's annotated enumeration root.
//
//mce:hotpath fixture enumeration root
func Enumerate(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func main() { Enumerate(10) }
`)
	hotArgs := []string{"-C", dir, "-run", "hotalloc", "./..."}

	// 1. No budget: the returned make() escapes and fails the gate.
	var out, errb strings.Builder
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run with no budget = %d, want 1 (stdout: %s, stderr: %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "hotalloc") || !strings.Contains(out.String(), "not in budget") {
		t.Errorf("diagnostic does not name the analyzer and the missing budget:\n%s", out.String())
	}

	// 2. Accept the site the way a human would, then the gate passes.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-update-allocbudget"}, &out, &errb); code != 0 {
		t.Fatalf("-update-allocbudget = %d, want 0 (stderr: %s)", code, errb.String())
	}
	budgetPath := filepath.Join(dir, ".mcevet", "allocbudget.json")
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		t.Fatalf("budget file was not written: %v", err)
	}
	if !strings.Contains(string(raw), "make([]int, n) escapes to heap") {
		t.Errorf("budget file does not carry the accepted site:\n%s", raw)
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 0 {
		t.Fatalf("run with budget = %d, want 0 (stdout: %s)", code, out.String())
	}

	// 3. Deleting the entry re-arms the gate.
	if err := os.WriteFile(budgetPath, []byte(`{"sites": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run after deleting the budget entry = %d, want 1 (stdout: %s)", code, out.String())
	}

	// 4. A fmt call planted in the hot loop boxes its argument on every
	// iteration: a new site the budget has not accepted.
	src := `package main

import "fmt"

// Enumerate is this module's annotated enumeration root.
//
//mce:hotpath fixture enumeration root
func Enumerate(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
		fmt.Sprintf("%d", i)
	}
	return out
}

func main() { Enumerate(10) }
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(hotArgs, &out, &errb); code != 1 {
		t.Fatalf("run with planted fmt.Sprintf = %d, want 1 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(out.String(), "not in budget: i escapes to heap") {
		t.Errorf("diagnostic does not name the boxed fmt argument:\n%s", out.String())
	}
}

// TestVerdictIndependentOfLoad: what mcevet reports for a package must not
// depend on what else is in the load. Each package here once failed when
// linted alone — a type-check split on its external test, or a golifecycle
// finding that a callee in another package cleared on the full run — so
// alone it must report exactly what the full run reports for it.
func TestVerdictIndependentOfLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var full, errb strings.Builder
	if code := run([]string{"-C", root, "./..."}, &full, &errb); code == 2 {
		t.Fatalf("full run failed: %s", errb.String())
	}
	for _, pkg := range []string{"internal/durable", "internal/graph", "internal/mcealg", "cmd/mceworker"} {
		dir := filepath.Join(root, pkg)
		var want strings.Builder
		for _, line := range strings.SplitAfter(full.String(), "\n") {
			if file, _, ok := strings.Cut(line, ":"); ok && filepath.Dir(file) == dir {
				want.WriteString(line)
			}
		}
		wantCode := 0
		if want.Len() > 0 {
			wantCode = 1
		}
		var out strings.Builder
		errb.Reset()
		if code := run([]string{"-C", root, "./" + pkg}, &out, &errb); code != wantCode || out.String() != want.String() {
			t.Errorf("mcevet ./%s = %d with\n%s(stderr: %s)\nwant %d with the full run's findings there:\n%s",
				pkg, code, out.String(), errb.String(), wantCode, want.String())
		}
	}
}
