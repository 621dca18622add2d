package kplex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

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

// isKPlex checks the definition directly.
func isKPlex(g *graph.Graph, s []int32, k int) bool {
	for _, v := range s {
		deg := 0
		for _, w := range s {
			if w != v && g.HasEdge(v, w) {
				deg++
			}
		}
		if deg < len(s)-k {
			return false
		}
	}
	return true
}

// bruteForce enumerates maximal k-plexes of size ≥ minSize by subset scan
// (n ≤ 16 only). Maximality is w.r.t. all k-plexes.
func bruteForce(g *graph.Graph, k, minSize int) [][]int32 {
	n := g.N()
	var plexes []uint32
	for mask := uint32(1); mask < 1<<n; mask++ {
		var s []int32
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, int32(v))
			}
		}
		if isKPlex(g, s, k) {
			plexes = append(plexes, mask)
		}
	}
	var out [][]int32
	for _, m := range plexes {
		maximal := true
		for _, m2 := range plexes {
			if m != m2 && m&m2 == m {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		var s []int32
		for v := 0; v < n; v++ {
			if m&(1<<v) != 0 {
				s = append(s, int32(v))
			}
		}
		if len(s) >= minSize {
			out = append(out, s)
		}
	}
	return out
}

func assertSame(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	gm := map[string]bool{}
	for _, p := range got {
		if gm[key(p)] {
			t.Fatalf("%s: duplicate %v", what, p)
		}
		gm[key(p)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d plexes, want %d\n got: %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for _, p := range want {
		if !gm[key(p)] {
			t.Fatalf("%s: missing %v", what, p)
		}
	}
}

func TestInvalidK(t *testing.T) {
	if err := Enumerate(graph.Empty(2), Options{K: 0}, func([]int32) {}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestK1EqualsMaximalCliques(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.2, 7)
	got, err := Collect(g, Options{K: 1, MinSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := mcealg.ReferenceCollect(g)
	assertSame(t, "k=1", got, want)
}

func TestK2OnPath(t *testing.T) {
	// Path 0-1-2: every member misses at most one other → whole path is a
	// 2-plex; it is the unique maximal one of size ≥ 3.
	g := fromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	got, err := Collect(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "path", got, [][]int32{{0, 1, 2}})
}

func TestK2OnCycle4(t *testing.T) {
	// C4 is a 2-plex of size 4 (each node misses exactly one).
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	got, err := Collect(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "C4", got, [][]int32{{0, 1, 2, 3}})
}

func TestCliqueMinusEdge(t *testing.T) {
	// K5 minus one edge: still a 2-plex of size 5.
	b := graph.NewBuilder(5)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if !(u == 0 && v == 1) {
				b.AddEdge(u, v)
			}
		}
	}
	got, err := Collect(b.Build(), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "K5-e", got, [][]int32{{0, 1, 2, 3, 4}})
}

func TestMinSizeFilters(t *testing.T) {
	// Two triangles joined by a bridge; with K=1, MinSize=3 only the
	// triangles qualify (edges and the bridge are size-2 cliques).
	g := fromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	})
	got, err := Collect(g, Options{K: 1, MinSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "minsize", got, [][]int32{{0, 1, 2}, {3, 4, 5}})
}

func TestMaxResultsStopsEarly(t *testing.T) {
	g := gen.ErdosRenyi(30, 0.3, 3)
	var n int
	err := Enumerate(g, Options{K: 2, MaxResults: 5}, func([]int32) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("emitted %d plexes, want exactly 5", n)
	}
}

func TestEmittedAreMaximalKPlexes(t *testing.T) {
	g := gen.HolmeKim(60, 4, 0.6, 11)
	k := 2
	got, err := Collect(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no 2-plexes found on a clustered graph")
	}
	for _, s := range got {
		if !isKPlex(g, s, k) {
			t.Fatalf("emitted non-k-plex %v", s)
		}
		// No extender.
		for v := int32(0); v < int32(g.N()); v++ {
			in := false
			for _, w := range s {
				if w == v {
					in = true
					break
				}
			}
			if in {
				continue
			}
			if isKPlex(g, append(append([]int32{}, s...), v), k) {
				t.Fatalf("plex %v extensible by %d", s, v)
			}
		}
	}
}

// Property: the enumerator matches subset brute force on tiny graphs for
// k ∈ {1, 2, 3}.
func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(seed int64, kPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 3
		k := int(kPick%3) + 1
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		g := b.Build()
		minSize := 2*k - 1
		got, err := Collect(g, Options{K: k, MinSize: minSize})
		if err != nil {
			return false
		}
		want := bruteForce(g, k, minSize)
		if len(got) != len(want) {
			return false
		}
		gm := map[string]bool{}
		for _, p := range got {
			gm[key(p)] = true
		}
		for _, p := range want {
			if !gm[key(p)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every clique of size ≥ minSize is inside some reported k-plex
// (cliques are k-plexes, so maximal plexes cover them).
func TestQuickCliquesCovered(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(20, 0.25, seed)
		plexes, err := Collect(g, Options{K: 2})
		if err != nil {
			return false
		}
		ok := true
		mcealg.ReferenceEnumerate(g, func(c []int32) {
			if len(c) < 3 {
				return
			}
			covered := false
			for _, p := range plexes {
				if subset(c, p) {
					covered = true
					break
				}
			}
			if !covered {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func subset(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

func BenchmarkKPlex(b *testing.B) {
	g := gen.HolmeKim(120, 4, 0.6, 9)
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				if err := Enumerate(g, Options{K: k}, func([]int32) { n++ }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fromEdges builds a graph with n nodes from an edge list.
func fromEdges(n int, edges []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
