package mce

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzRun matches one `go test -fuzz=NAME ... ./DIR` line of the Makefile's
// fuzz-smoke recipe.
var fuzzRun = regexp.MustCompile(`-fuzz=(Fuzz\w+)\s.*-fuzztime=10s\s+\./(\S+)\s*$`)

// TestFuzzSmokeListsEveryTarget holds the Makefile's fuzz-smoke recipe — the
// one list CI runs — to the fuzz targets in the tree: every `func Fuzz*` in
// a test file runs there, for 10 s, from its own package, and the recipe
// names no target that is gone.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	listed := map[string]bool{} // "DIR FuzzName"
	for _, line := range makeRecipe(t, "fuzz-smoke") {
		if m := fuzzRun.FindStringSubmatch(line); m != nil {
			listed[m[2]+" "+m[1]] = true
		}
	}
	found := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				found[filepath.ToSlash(filepath.Dir(path))+" "+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found in the tree")
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz-smoke recipe", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("the Makefile's fuzz-smoke recipe runs %s, which is not in the tree", target)
		}
	}
}

// makeRecipe returns the recipe lines of target in the repository's
// Makefile.
func makeRecipe(t *testing.T, target string) []string {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var recipe []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, target+":"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			recipe = append(recipe, line)
		case in:
			return recipe
		}
	}
	if !in {
		t.Fatalf("Makefile has no %s target", target)
	}
	return recipe
}
