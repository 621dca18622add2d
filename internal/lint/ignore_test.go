package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestIgnoreSuppresses checks the happy path through the fixture harness:
// the justified directive hides Blocked, the undirected Loud still reports.
func TestIgnoreSuppresses(t *testing.T) {
	RunFixture(t, LockBalance, "ignore/ignored.go")
}

// TestIgnoreNeedsJustification checks both halves of the unjustified case:
// the directive is reported, and the finding it covered is NOT suppressed.
func TestIgnoreNeedsJustification(t *testing.T) {
	path := filepath.Join(moduleRoot(), "internal", "lint", "testdata", "ignore", "unjustified.go")
	pkg, err := LoadFiles(moduleRoot(), path)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{LockBalance})
	if err != nil {
		t.Fatalf("running lockbalance: %v", err)
	}
	var sawDirective, sawFinding bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "needs a justification"):
			sawDirective = true
		case d.Analyzer == "lockbalance" && strings.Contains(d.Message, "quiet.Lock"):
			sawFinding = true
		}
	}
	if !sawDirective {
		t.Errorf("unjustified lint:ignore directive was not reported; got %v", diags)
	}
	if !sawFinding {
		t.Errorf("unjustified directive suppressed the finding anyway; got %v", diags)
	}
}

// TestWantHarnessDetectsMisses guards the harness itself: a fixture whose
// annotation can never match must fail, otherwise every analyzer test above
// is vacuous.
func TestWantHarnessDetectsMisses(t *testing.T) {
	rec := &recorder{}
	RunFixture(rec, SortedAdj, "lockbalance/flagged.go") // wrong analyzer: wants go unmatched
	if len(rec.errors) == 0 {
		t.Fatal("harness accepted a fixture whose want annotations matched nothing")
	}
}

// recorder satisfies TB and swallows failures for harness self-tests.
type recorder struct {
	errors []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, format)
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.errors = append(r.errors, format)
	panic("recorder.Fatalf")
}
