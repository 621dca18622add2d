package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked Go package, the unit handed to analyzers.
type Package struct {
	// PkgPath is the import path ("mce/internal/cluster"); an external test
	// package is "<importpath>_test".
	PkgPath string
	// Dir is the directory holding the sources.
	Dir string
	// Fset positions every file of the load; shared across packages of one
	// Load call so diagnostics from different packages sort together.
	Fset  *token.FileSet
	Files []*ast.File
	// Types and Info carry the go/types results; analyzers rely on both.
	Types *types.Package
	Info  *types.Info
	// ImporterClosed records that the load pattern covered the whole module
	// ("./..."), so every importer of this package is also in the load. A
	// cross-package property — "nothing heats this function" — is only
	// decidable under a closed view; hotalloc's stale-entry check consults
	// this to stay silent on partial loads, where an unloaded importer may
	// hold the hot root.
	ImporterClosed bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string // a test variant reads "p [p.test]"
	Dir        string
	GoFiles    []string // a test variant lists its _test.go files here too
	ImportMap  map[string]string
	Export     string
	ForTest    string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -json` with args in dir and decodes the stream.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles,ImportMap,Export,ForTest,DepOnly,Standard,Error"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v (%s)", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	var listed []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// Load type-checks the packages matching patterns the way `go test` compiles
// them, as `go vet` does: a package with in-package _test.go files is
// checked with them, and an external test package (package foo_test) is its
// own Package with PkgPath "<importpath>_test". One `go list -deps -test
// -export` names every variant and its export data; each package is checked
// from source against the export data of exactly the variants its test
// binary links (ImportMap), so a package and its test-augmented twin never
// meet inside one type-check. dir is the directory the patterns are resolved
// in, typically the module root.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	closed := len(patterns) == 1 && patterns[0] == "./..."
	listed, err := goList(dir, append([]string{"-deps", "-test", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*listedPackage, len(listed))
	targets := make(map[string]*listedPackage)
	for _, lp := range listed {
		byID[lp.ImportPath] = lp
		if lp.DepOnly || lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") {
			continue // dependencies, and the generated test mains
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		if targets[path] == nil || lp.ForTest == path {
			targets[path] = lp // "p [p.test]" supersedes the plain package
		}
	}
	paths := make([]string, 0, len(targets))
	for path := range targets {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		lp := targets[path]
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", path, lp.Error.Err)
		}
		srcs := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			srcs[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := check(path, lp.Dir, fset, exportImporter(fset, byID, lp.ImportMap), srcs)
		if err != nil {
			return nil, err
		}
		pkg.ImporterClosed = closed
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter resolves each import through importMap (the variant the
// importing package links, for test binaries) to the export data go list
// reported for it. A fresh importer per checked package keeps the variants
// of one test binary apart from those of another.
func exportImporter(fset *token.FileSet, byID map[string]*listedPackage, importMap map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		id := path
		if mapped, ok := importMap[path]; ok {
			id = mapped
		}
		if lp := byID[id]; lp != nil && lp.Export != "" {
			return os.Open(lp.Export)
		}
		return nil, fmt.Errorf("lint: no export data for %s (does it build?)", id)
	})
}

// LoadFiles parses and type-checks an explicit file list as one package —
// the fixture path used by the analyzer tests, whose sources live under
// testdata where the go tool does not list them. moduleDir anchors import
// resolution (fixtures import both stdlib and mce packages).
func LoadFiles(moduleDir string, paths ...string) (*Package, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: LoadFiles needs at least one file")
	}
	args := []string{"-deps", "-export"}
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		for _, imp := range f.Imports {
			args = append(args, strings.Trim(imp.Path.Value, `"`))
		}
	}
	byID := map[string]*listedPackage{}
	if len(args) > 2 {
		listed, err := goList(moduleDir, args...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			byID[lp.ImportPath] = lp
		}
	}
	fset := token.NewFileSet()
	return check("fixture", filepath.Dir(paths[0]), fset, exportImporter(fset, byID, nil), paths)
}

// check parses files and runs the type checker, returning a ready Package.
func check(pkgPath, dir string, fset *token.FileSet, imp types.Importer, paths []string) (*Package, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
