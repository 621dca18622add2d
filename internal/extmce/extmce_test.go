package extmce

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/core"
	"mce/internal/diskgraph"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// onDisk round-trips g through the disk format and opens it.
func onDisk(t *testing.T, g *graph.Graph) *diskgraph.Graph {
	t.Helper()
	p := filepath.Join(t.TempDir(), "g.mceg")
	if err := diskgraph.Write(p, g); err != nil {
		t.Fatal(err)
	}
	dg, err := diskgraph.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dg.Close() })
	return dg
}

func collect(t *testing.T, dg *diskgraph.Graph, opts Options) ([][]int32, []int, *Stats) {
	t.Helper()
	var cliques [][]int32
	var levels []int
	stats, err := Enumerate(dg, opts, func(c []int32, level int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		cliques = append(cliques, cp)
		levels = append(levels, level)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cliques, levels, stats
}

func TestDiskGraphRoundTrip(t *testing.T) {
	g := gen.HolmeKim(300, 4, 0.6, 7)
	dg := onDisk(t, g)
	if dg.N() != g.N() || dg.M() != g.M() {
		t.Fatalf("disk graph n=%d m=%d, want n=%d m=%d", dg.N(), dg.M(), g.N(), g.M())
	}
	var buf []int32
	var err error
	for v := int32(0); v < int32(g.N()); v++ {
		if dg.Degree(v) != g.Degree(v) {
			t.Fatalf("degree(%d) = %d, want %d", v, dg.Degree(v), g.Degree(v))
		}
		buf, err = dg.ReadNeighbors(v, buf)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Neighbors(v)
		if len(buf) != len(want) {
			t.Fatalf("neighbors(%d) length %d, want %d", v, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("neighbors(%d) differ at %d", v, i)
			}
		}
	}
	if dg.Reads() == 0 {
		t.Fatal("read counter not incremented")
	}
}

func TestDiskGraphOpenErrors(t *testing.T) {
	if _, err := diskgraph.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
	p := filepath.Join(t.TempDir(), "bad")
	if err := writeFile(p, "not a graph"); err != nil {
		t.Fatal(err)
	}
	if _, err := diskgraph.Open(p); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestOutOfCoreMatchesInMemory(t *testing.T) {
	g := gen.HolmeKim(800, 5, 0.7, 21)
	dg := onDisk(t, g)
	for _, ratio := range []float64{0.9, 0.4, 0.1} {
		want := map[string]bool{}
		res, err := core.FindMaxCliques(g, core.Options{BlockRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cliques {
			want[key(c)] = true
		}
		cliques, levels, stats := collect(t, dg, Options{BlockRatio: ratio})
		if len(cliques) != len(want) {
			t.Fatalf("ratio %v: out-of-core found %d cliques, want %d", ratio, len(cliques), len(want))
		}
		seen := map[string]bool{}
		for i, c := range cliques {
			k := key(c)
			if seen[k] {
				t.Fatalf("ratio %v: duplicate clique {%s}", ratio, k)
			}
			seen[k] = true
			if !want[k] {
				t.Fatalf("ratio %v: spurious clique {%s}", ratio, k)
			}
			// Level ≥ 1 exactly for all-hub cliques.
			allHubs := true
			for _, v := range c {
				if g.Degree(v) < stats.BlockSize {
					allHubs = false
					break
				}
			}
			if (levels[i] >= 1) != allHubs {
				t.Fatalf("ratio %v: level %d for clique {%s} (allHubs=%v)", ratio, levels[i], k, allHubs)
			}
		}
		if stats.TotalCliques != len(cliques) {
			t.Fatalf("stats count %d, emitted %d", stats.TotalCliques, len(cliques))
		}
		if stats.Blocks == 0 || stats.DiskReads == 0 {
			t.Fatalf("implausible stats: %+v", stats)
		}
	}
}

func TestOutOfCoreHubCliques(t *testing.T) {
	// K5 hub core with pendant leaves: the hub clique must survive with
	// level ≥ 1 and the extension filter must drop subsumed hub cliques.
	b := graph.NewBuilder(5 + 5*20)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	next := int32(5)
	for u := int32(0); u < 5; u++ {
		for i := 0; i < 20; i++ {
			b.AddEdge(u, next)
			next++
		}
	}
	g := b.Build()
	dg := onDisk(t, g)
	cliques, levels, stats := collect(t, dg, Options{BlockSize: 10})
	found := false
	for i, c := range cliques {
		if key(c) == "0,1,2,3,4" {
			found = true
			if levels[i] < 1 {
				t.Fatalf("hub clique at level %d", levels[i])
			}
		}
	}
	if !found || stats.HubCliques < 1 {
		t.Fatalf("hub clique missing (stats %+v)", stats)
	}
}

func TestOutOfCoreAllHubsFallback(t *testing.T) {
	g := graph.Complete(8)
	dg := onDisk(t, g)
	cliques, _, stats := collect(t, dg, Options{BlockSize: 3})
	if len(cliques) != 1 || key(cliques[0]) != "0,1,2,3,4,5,6,7" {
		t.Fatalf("fallback cliques = %v", cliques)
	}
	if stats.Feasible != 0 || stats.Hubs != 8 {
		t.Fatalf("fallback stats = %+v", stats)
	}
}

func TestOutOfCoreEmptyGraph(t *testing.T) {
	dg := onDisk(t, graph.Empty(0))
	if _, err := Enumerate(dg, Options{}, func([]int32, int) {}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestOutOfCoreIsolatedNodes(t *testing.T) {
	dg := onDisk(t, graph.Empty(4))
	cliques, _, _ := collect(t, dg, Options{BlockSize: 4})
	if len(cliques) != 4 {
		t.Fatalf("isolated nodes: %v", cliques)
	}
}

// Property: out-of-core equals the reference for random graphs across m.
func TestQuickOutOfCoreComplete(t *testing.T) {
	f := func(seed int64, rawRatio uint8) bool {
		g := gen.BarabasiAlbert(int(seed%60)+10, 3, seed)
		p := filepath.Join(t.TempDir(), fmt.Sprintf("q%d.mceg", seed))
		if err := diskgraph.Write(p, g); err != nil {
			return false
		}
		dg, err := diskgraph.Open(p)
		if err != nil {
			return false
		}
		defer dg.Close()
		ratio := 0.1 + float64(rawRatio%9)*0.1
		want := map[string]bool{}
		for _, c := range mcealg.ReferenceCollect(g) {
			want[key(c)] = true
		}
		got := map[string]bool{}
		n := 0
		_, err = Enumerate(dg, Options{BlockRatio: ratio}, func(c []int32, _ int) {
			cp := make([]int32, len(c))
			copy(cp, c)
			got[key(cp)] = true
			n++
		})
		if err != nil || n != len(want) || len(got) != n {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func writeFile(p, content string) error {
	return os.WriteFile(p, []byte(content), 0o644)
}

func TestPrefetchEquivalent(t *testing.T) {
	g := gen.HolmeKim(600, 5, 0.7, 27)
	dg := onDisk(t, g)
	serial, serialLevels, _ := collect(t, dg, Options{BlockRatio: 0.3})
	pre, preLevels, _ := collect(t, dg, Options{BlockRatio: 0.3, Prefetch: 4})
	if len(serial) != len(pre) {
		t.Fatalf("prefetch changed clique count: %d vs %d", len(pre), len(serial))
	}
	for i := range serial {
		if key(serial[i]) != key(pre[i]) || serialLevels[i] != preLevels[i] {
			t.Fatalf("prefetch permuted output at %d", i)
		}
	}
}
