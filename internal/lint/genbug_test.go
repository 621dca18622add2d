package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMapOrderCatchesReintroducedGenBug is the acceptance criterion from
// the issue: deliberately reintroducing the PR 3 map-order bug in
// internal/gen must make maporder fail the build. The bug was HolmeKim
// drawing a triad neighbour, by a seeded rng index, from a slice filled by
// ranging over a map — same-seed graphs differed across processes. The fix
// is that a node's neighbours are an ascending slice and no map is ranged
// over; the test puts the map back in a copy of the real source and expects
// the analyzer to re-find it; the unmodified source must stay clean.
func TestMapOrderCatchesReintroducedGenBug(t *testing.T) {
	root := moduleRoot()
	genDir := filepath.Join(root, "internal", "gen")
	srcs := []string{"gen.go", "datasets.go", "planted.go"}

	orig, err := os.ReadFile(filepath.Join(genDir, "gen.go"))
	if err != nil {
		t.Fatalf("reading gen.go: %v", err)
	}
	const fix = "if nbrs := adj[last]; len(nbrs) > 0 {"
	if !strings.Contains(string(orig), fix) {
		t.Fatalf("gen.go no longer contains %q; update this test to break the current fix", fix)
	}
	const bug = `set := map[int32]bool{}
				for _, u := range adj[last] {
					set[u] = true
				}
				var nbrs []int32
				for u := range set {
					nbrs = append(nbrs, u)
				}
				if len(nbrs) > 0 {`
	broken := strings.Replace(string(orig), fix, bug, 1)

	dir := t.TempDir()
	paths := make([]string, len(srcs))
	for i, name := range srcs {
		src, err := os.ReadFile(filepath.Join(genDir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if name == "gen.go" {
			src = []byte(broken)
		}
		paths[i] = filepath.Join(dir, name)
		if err := os.WriteFile(paths[i], src, 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}

	pkg, err := LoadFiles(root, paths...)
	if err != nil {
		t.Fatalf("loading broken gen copy: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{MapOrder})
	if err != nil {
		t.Fatalf("running maporder: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "maporder" && strings.Contains(d.Message, "seeded rand draw") {
			found = true
		}
	}
	if !found {
		t.Errorf("maporder missed the reintroduced PR 3 bug; diagnostics:\n%v", diags)
	}

	// Control: the real, fixed sources are clean.
	realPaths := make([]string, len(srcs))
	for i, name := range srcs {
		realPaths[i] = filepath.Join(genDir, name)
	}
	cleanPkg, err := LoadFiles(root, realPaths...)
	if err != nil {
		t.Fatalf("loading real gen: %v", err)
	}
	cleanDiags, err := RunAnalyzers([]*Package{cleanPkg}, []*Analyzer{MapOrder})
	if err != nil {
		t.Fatalf("running maporder on real gen: %v", err)
	}
	if len(cleanDiags) != 0 {
		t.Errorf("the fixed internal/gen should be clean, got:\n%v", cleanDiags)
	}
}
