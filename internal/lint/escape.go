package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The escape-analysis ingester: hotalloc needs ground truth about
// which expressions the compiler actually heap-allocates, and the compiler
// already computes it — `go build -gcflags=-m=2` prints every escape
// decision. This file shells out per package, parses the diagnostics, and
// joins them to the enclosing function declarations so the analyzers can
// intersect them with the hot set.
//
// Two properties of the toolchain make this cheap and reliable:
//
//   - the diagnostics are replayed from the build cache, so after the first
//     compile a rerun costs one cache probe, not a rebuild (CI reuses the
//     ordinary go-build cache for the same reason);
//   - a file-list build ("go build a.go b.go") gets the same treatment, so
//     fixture packages under testdata and real module packages go through
//     one code path.
//
// Only the package's non-test files are built: the go tool refuses _test.go
// files in a file-list build, and the hot paths live in the regular
// compilation unit anyway.

// escapeSite is one heap-allocation decision of the compiler: an expression
// that escapes to the heap or a variable moved there.
type escapeSite struct {
	pos token.Position // absolute filename, compiler line/col
	msg string         // e.g. "make([]int32, n) escapes to heap"
}

// escapeData is the parsed escape analysis of one package, joined to its
// function declarations.
type escapeData struct {
	byFunc map[string][]escapeSite // objKey of enclosing FuncDecl -> sites
}

// escapeLineRE matches one compiler diagnostic line: file:line:col: message.
var escapeLineRE = regexp.MustCompile(`^(.+?\.go):(\d+):(\d+): (.*)$`)

// shapeRE matches a GC shape in a diagnostic: the compiler analyses a
// generic body once per shape it is instantiated with and names the shape
// in the message — make([]go.shape.[2]uint64, n), make([]go.shape.int, n).
var shapeRE = regexp.MustCompile(`go\.shape\.(\[\d*\]|\*)*[\w.]+`)

// parseEscapeOutput extracts the heap decisions from -m=2 output. dir
// resolves the compiler's cwd-relative positions. -m=2 prints each escaping
// expression twice (once with a trailing colon introducing "flow:"
// explanation lines, once bare); the explanations are skipped and the
// duplicates collapse through the seen set. A generic body is printed once
// per shape, its shape named in the message: the shape is written as
// "go.shape", so the copies collapse too and a site counts once, however
// many shapes allocate there.
func parseEscapeOutput(out []byte, dir string) []escapeSite {
	var sites []escapeSite
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if t := strings.TrimLeft(msg, " "); t != msg {
			// Indented detail ("flow: ...", "from ...") under a header line.
			continue
		}
		if strings.HasSuffix(msg, ":") {
			// An -m=2 explanation header ("v escapes to heap:"); the -m=1
			// decision line follows separately — for a moved variable it is
			// "moved to heap: v", so stripping the colon instead of skipping
			// would invent a second site at the same position.
			continue
		}
		if !strings.HasSuffix(msg, " escapes to heap") && !strings.HasPrefix(msg, "moved to heap: ") {
			continue
		}
		msg = shapeRE.ReplaceAllString(msg, "go.shape")
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		key := file + ":" + m[2] + ":" + m[3] + ":" + msg
		if seen[key] {
			continue
		}
		seen[key] = true
		line, _ := atoi(m[2])
		col, _ := atoi(m[3])
		sites = append(sites, escapeSite{
			pos: token.Position{Filename: file, Line: line, Column: col},
			msg: msg,
		})
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.msg < b.msg
	})
	return sites
}

// atoi is strconv.Atoi without the error type in the hot import set.
func atoi(s string) (int, bool) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// runEscapeBuild compiles the package's non-test files with -gcflags=-m=2
// and returns the parsed heap decisions. Packages with no non-test files
// (external test packages) yield no data.
func runEscapeBuild(pkg *Package) ([]escapeSite, error) {
	var files []string
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Base(name))
	}
	if len(files) == 0 {
		return nil, nil
	}
	sort.Strings(files)
	args := []string{"build", "-gcflags=-m=2"}
	if pkg.Types.Name() == "main" {
		// A main-package file list would drop a binary in pkg.Dir.
		args = append(args, "-o", os.DevNull)
	}
	args = append(args, files...)
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: escape analysis of %s: go build -gcflags=-m=2: %v\n%s",
			pkg.PkgPath, err, strings.TrimSpace(out.String()))
	}
	return parseEscapeOutput(out.Bytes(), pkg.Dir), nil
}

// escapeFor returns pkg's escape data, running the compiler on first use
// and memoising per package for the whole suite.
func escapeFor(s *Suite, pkg *Package) (*escapeData, error) {
	type result struct {
		data *escapeData
		err  error
	}
	r := s.Memo("escape:"+pkg.PkgPath, func() any {
		sites, err := runEscapeBuild(pkg)
		if err != nil {
			return result{err: err}
		}
		return result{data: joinEscapes(pkg, sites)}
	}).(result)
	return r.data, r.err
}

// joinEscapes attributes each site to the FuncDecl whose body spans it
// (sites inside function literals land on the enclosing declaration, same
// attribution the call graph uses). Sites outside any declaration —
// package-level initialisers — are dropped: they run once, not per
// enumeration node.
func joinEscapes(pkg *Package, sites []escapeSite) *escapeData {
	type span struct {
		start, end int // line range, inclusive
		key        string
	}
	spans := make(map[string][]span) // filename -> decl spans
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			spans[start.Filename] = append(spans[start.Filename], span{
				start: start.Line,
				end:   end.Line,
				key:   objKey(fn),
			})
		}
	}
	data := &escapeData{byFunc: make(map[string][]escapeSite)}
	for _, site := range sites {
		for _, sp := range spans[site.pos.Filename] {
			if site.pos.Line >= sp.start && site.pos.Line <= sp.end {
				data.byFunc[sp.key] = append(data.byFunc[sp.key], site)
				break
			}
		}
	}
	return data
}
