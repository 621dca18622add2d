package mce

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestEnumerateTriangleTail(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"0,1,2": true, "2,3": true}
	if len(res.Cliques) != 2 {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
	for _, c := range res.Cliques {
		if !want[key(c)] {
			t.Fatalf("unexpected clique %v", c)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	bad := []Option{
		WithBlockSize(1),
		WithBlockRatio(0),
		WithBlockRatio(1.5),
		WithParallelism(0),
		WithAlgorithm("NoSuch", "Lists"),
		WithAlgorithm("Tomita", "NoSuch"),
		WithWorkers(),
	}
	for i, opt := range bad {
		if _, err := Enumerate(g, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

// TestPublicOptionsHaveCallers keeps the option surface sized by its
// callers: every exported With* in mce.go must be called from a non-test
// file under cmd/ or bench/. An option only tests set belongs in the engine
// as a constant, not in the public API.
func TestPublicOptionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "mce.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, d := range api.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
			options = append(options, fn.Name.Name)
		}
	}
	if len(options) == 0 {
		t.Fatal("no With* options found in mce.go")
	}
	called := map[string]bool{}
	for _, root := range []string{"cmd", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "mce" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range options {
		if !called[name] {
			t.Errorf("%s has no caller outside tests under cmd/ or bench/", name)
		}
	}
}

func TestEnumerateWithNamedCombos(t *testing.T) {
	g := GenerateSocialNetwork(150, 4, 0.6, 5)
	base, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"BKPivot", "Tomita", "Eppstein", "XPivot"} {
		for _, st := range []string{"Matrix", "Lists", "BitSets"} {
			res, err := Enumerate(g, WithAlgorithm(alg, st), WithBlockRatio(0.6))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, st, err)
			}
			if len(res.Cliques) != len(base.Cliques) {
				t.Fatalf("%s/%s: %d cliques, want %d", alg, st, len(res.Cliques), len(base.Cliques))
			}
		}
	}
}

func TestEnumerateDistributed(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateBarabasiAlbert(250, 4, 11)
	local, err := Enumerate(g, WithBlockRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Enumerate(g, WithBlockRatio(0.5), WithWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Cliques) != len(local.Cliques) {
		t.Fatalf("distributed %d cliques vs local %d", len(dist.Cliques), len(local.Cliques))
	}
	lm := map[string]bool{}
	for _, c := range local.Cliques {
		lm[key(c)] = true
	}
	for _, c := range dist.Cliques {
		if !lm[key(c)] {
			t.Fatalf("distributed found unknown clique {%s}", key(c))
		}
	}
}

func TestEnumerateDistributedUnreachableWorkers(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	if _, err := Enumerate(g, WithWorkers("127.0.0.1:1")); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	g := GenerateErdosRenyi(60, 0.1, 3)
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := Save(p, g); err != nil {
		t.Fatal(err)
	}
	g2, labels, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d after round trip, want %d", g2.M(), g.M())
	}
	if labels.Len() == 0 && g.M() > 0 {
		t.Fatal("label map empty")
	}
	r1, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Enumerate(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cliques) != len(r2.Cliques) {
		t.Fatalf("clique count changed after round trip: %d vs %d", len(r1.Cliques), len(r2.Cliques))
	}
}

func TestBuilderExported(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 2 {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
}

func TestStatsExposed(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 13)
	res, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.BlockSize <= 0 || s.MaxDegree <= 0 || len(s.Levels) == 0 {
		t.Fatalf("stats incomplete: %+v", s)
	}
	if s.TotalCliques != len(res.Cliques) {
		t.Fatalf("TotalCliques = %d, want %d", s.TotalCliques, len(res.Cliques))
	}
}

func TestParseCombo(t *testing.T) {
	if _, err := ParseCombo("tomita", "bitsets"); err != nil {
		t.Fatalf("lowercase names rejected: %v", err)
	}
	if _, err := ParseCombo("", ""); err == nil {
		t.Fatal("empty names accepted")
	}
}

// TestSchedulingOption: the options that only schedule work — block-level
// and intra-block parallelism — never change the output or its order.
func TestSchedulingOption(t *testing.T) {
	g := GenerateSocialNetwork(400, 5, 0.7, 21)
	base, err := Enumerate(g, WithBlockRatio(0.3), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Enumerate(g, WithBlockRatio(0.3), WithParallelism(3), WithIntraBlockParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cliques) != len(tuned.Cliques) {
		t.Fatalf("options changed results: %d vs %d", len(base.Cliques), len(tuned.Cliques))
	}
	for i := range base.Cliques {
		if key(base.Cliques[i]) != key(tuned.Cliques[i]) || base.Level[i] != tuned.Level[i] {
			t.Fatalf("options permuted output at %d", i)
		}
	}
}

func TestEnumerateStreamPublicAPI(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 33)
	batch, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int32
	stats, err := EnumerateStream(g, func(c []int32, _ int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
	}, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch.Cliques) || stats.TotalCliques != len(got) {
		t.Fatalf("stream %d cliques (stats %d), batch %d", len(got), stats.TotalCliques, len(batch.Cliques))
	}
	for i := range got {
		if key(got[i]) != key(batch.Cliques[i]) {
			t.Fatalf("stream order diverges at %d", i)
		}
	}
	if _, err := EnumerateStream(g, func([]int32, int) {}, WithBlockRatio(9)); err == nil {
		t.Fatal("bad option accepted")
	}
}

// maxLevels caps the hub recursion depth (core.Options.MaxLevels), an
// engine knob with no public option.
func maxLevels(levels int) Option {
	return func(c *config) error {
		c.core.MaxLevels = levels
		return nil
	}
}

// TestStreamHonoursMaxLevels pins that the depth cap counts absolute
// recursion depth on both routes: a graph that needs ≥ 3 levels, capped at
// one, runs level 0 plus the terminal core whether accumulated or streamed.
func TestStreamHonoursMaxLevels(t *testing.T) {
	g := GenerateSocialNetwork(600, 5, 0.7, 37)
	uncapped, err := Enumerate(g, WithBlockSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(uncapped.Stats.Levels); n < 3 {
		t.Fatalf("fixture needs only %d levels, want ≥ 3", n)
	}
	batch, err := Enumerate(g, WithBlockSize(10), maxLevels(1))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := EnumerateStream(g, func([]int32, int) {}, WithBlockSize(10), maxLevels(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Stats.Levels) != 2 || !batch.Stats.CoreFallback {
		t.Fatalf("Enumerate ran %d levels, fallback %v; want 2 and true", len(batch.Stats.Levels), batch.Stats.CoreFallback)
	}
	if len(streamed.Levels) != 2 || !streamed.CoreFallback {
		t.Fatalf("EnumerateStream ran %d levels, fallback %v; want 2 and true", len(streamed.Levels), streamed.CoreFallback)
	}
	if streamed.TotalCliques != len(uncapped.Cliques) {
		t.Fatalf("capped stream emitted %d cliques, want %d", streamed.TotalCliques, len(uncapped.Cliques))
	}
}

// TestStreamWorkerHealthReport pins that a streamed distributed run goes
// through the same run wrapper as Enumerate: the health report fires once.
func TestStreamWorkerHealthReport(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	g := GenerateSocialNetwork(250, 4, 0.6, 51)
	var reports []HealthReport
	_, err = EnumerateStream(g, func([]int32, int) {},
		WithWorkers(addrs...),
		WithWorkerHealthReport(func(r HealthReport) { reports = append(reports, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Workers) != 1 {
		t.Fatalf("health reports = %+v, want one report on one worker", reports)
	}
}

func TestCountMaxCliques(t *testing.T) {
	g := GenerateSocialNetwork(200, 4, 0.6, 71)
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountMaxCliques(g)
	if err != nil || n != len(res.Cliques) {
		t.Fatalf("CountMaxCliques = %d, %v; want %d", n, err, len(res.Cliques))
	}
	if _, err := CountMaxCliques(g, WithBlockRatio(5)); err == nil {
		t.Fatal("bad option accepted")
	}
}

func TestFaultToleranceOptionValidation(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	bad := []Option{
		WithTaskTimeout(0), // ambiguous: derived default vs disabled
		WithTaskRetries(0), // ambiguous: default budget vs unlimited
		WithWorkerReport(nil),
	}
	for i, opt := range bad {
		if _, err := Enumerate(g, opt); err == nil {
			t.Errorf("bad fault-tolerance option %d accepted", i)
		}
	}
}

func TestEnumerateDistributedWithFaultOptions(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateSocialNetwork(250, 4, 0.6, 51)
	local, err := Enumerate(g, WithBlockRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var report *DialReport
	dist, err := Enumerate(g,
		WithBlockRatio(0.5),
		WithWorkers(addrs...),
		WithTaskTimeout(30*time.Second),
		WithTaskRetries(5),
		WithAutoReconnect(),
		WithWorkerReport(func(r DialReport) { report = &r }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Cliques) != len(local.Cliques) {
		t.Fatalf("fault-tolerant run found %d cliques, want %d", len(dist.Cliques), len(local.Cliques))
	}
	if report == nil {
		t.Fatal("WithWorkerReport callback never invoked")
	}
	if report.Degraded() || report.Connected != 2 || len(report.Addrs) != 2 {
		t.Fatalf("report = %+v, want clean 2-worker start", *report)
	}
}

func TestEnumerateContextCancelled(t *testing.T) {
	g := GenerateSocialNetwork(200, 4, 0.6, 53)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EnumerateContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateContext err = %v, want context.Canceled", err)
	}
	_, err := EnumerateStreamContext(ctx, g, func([]int32, int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateStreamContext err = %v, want context.Canceled", err)
	}
}
