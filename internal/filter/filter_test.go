package filter

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

func TestIndexContainment(t *testing.T) {
	cf := [][]int32{{1, 2, 3}, {3, 4}, {5}}
	ix := NewIndex(cf)
	cases := []struct {
		c    []int32
		want bool
	}{
		{[]int32{1, 2}, true},
		{[]int32{2, 3}, true},
		{[]int32{1, 2, 3}, true},
		{[]int32{3, 4}, true},
		{[]int32{5}, true},
		{[]int32{1, 4}, false},
		{[]int32{1, 2, 3, 4}, false},
		{[]int32{6}, false},
		{[]int32{4, 5}, false},
	}
	for _, c := range cases {
		if got := ix.ContainedIn(c.c); got != c.want {
			t.Errorf("ContainedIn(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestIndexEmptyClique(t *testing.T) {
	if NewIndex(nil).ContainedIn(nil) {
		t.Fatalf("empty clique contained in empty family")
	}
	if !NewIndex([][]int32{{1}}).ContainedIn(nil) {
		t.Fatalf("empty clique not contained in non-empty family")
	}
}

func TestFilterDropsContained(t *testing.T) {
	cf := [][]int32{{1, 2, 3}, {4, 5}}
	ch := [][]int32{{2, 3}, {6, 7}, {4, 5}, {1, 4}}
	got := Filter(ch, cf)
	want := map[string]bool{"6,7": true, "1,4": true}
	if len(got) != len(want) {
		t.Fatalf("Filter = %v", got)
	}
	for _, c := range got {
		if !want[key(c)] {
			t.Fatalf("unexpected survivor %v", c)
		}
	}
}

func TestFilterEmptyFamilies(t *testing.T) {
	if got := Filter(nil, [][]int32{{1}}); len(got) != 0 {
		t.Fatalf("Filter(nil, cf) = %v", got)
	}
	ch := [][]int32{{1, 2}}
	if got := Filter(ch, nil); len(got) != 1 {
		t.Fatalf("Filter(ch, nil) dropped cliques: %v", got)
	}
}

func TestByExtension(t *testing.T) {
	// Path 0-1-2 plus edge 1-3: cliques {0,1},{1,2},{1,3}. Let feasible =
	// {0} only. Hub-side graph on {1,2,3} has maximal cliques {1,2},{1,3}.
	// {1,2}: is there a feasible node adjacent to both 1 and 2? Node 0 is
	// adjacent to 1 only → no → keep. Same for {1,3}.
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	feasible := func(v int32) bool { return v == 0 }
	ch := [][]int32{{1, 2}, {1, 3}}
	got := ByExtension(g, ch, feasible)
	if len(got) != 2 {
		t.Fatalf("ByExtension dropped valid cliques: %v", got)
	}
	// Now make 0 adjacent to 1 and 2: {1,2} extends to {0,1,2} → dropped.
	g2 := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}})
	got = ByExtension(g2, ch, feasible)
	if len(got) != 1 || key(got[0]) != "1,3" {
		t.Fatalf("ByExtension = %v, want [{1,3}]", got)
	}
}

func TestDedup(t *testing.T) {
	cs := [][]int32{{1, 2}, {3}, {1, 2}, {3}, {1, 2, 3}}
	got := Dedup(cs)
	if len(got) != 3 {
		t.Fatalf("Dedup = %v", got)
	}
}

func TestSortCliques(t *testing.T) {
	cs := [][]int32{{2, 3}, {1, 5}, {1, 2, 3}, {1, 2}}
	SortCliques(cs)
	want := []string{"1,2", "1,2,3", "1,5", "2,3"}
	for i, c := range cs {
		if key(c) != want[i] {
			t.Fatalf("SortCliques order = %v", cs)
		}
	}
}

// Property: the paper-faithful containment filter and the extension-based
// filter agree when used in the Lemma 1 setting: cf = maximal cliques with a
// feasible node, ch = maximal cliques of the hub-induced subgraph.
func TestQuickFilterEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 8
		g := gen.BarabasiAlbert(n, 3, seed)
		m := g.MaxDegree()/2 + 1
		feasSet := map[int32]bool{}
		var hubs []int32
		for v := int32(0); v < int32(n); v++ {
			if g.Degree(v) < m {
				feasSet[v] = true
			} else {
				hubs = append(hubs, v)
			}
		}
		all := mcealg.ReferenceCollect(g)
		var cf [][]int32
		for _, c := range all {
			for _, v := range c {
				if feasSet[v] {
					cf = append(cf, c)
					break
				}
			}
		}
		sub, orig := graph.Induced(g, hubs)
		var ch [][]int32
		mcealg.ReferenceEnumerate(sub, func(c []int32) {
			global := make([]int32, len(c))
			for i, v := range c {
				global[i] = orig[v]
			}
			SortCliques([][]int32{global})
			ch = append(ch, global)
		})
		a := Filter(ch, cf)
		b := ByExtension(g, ch, func(v int32) bool { return feasSet[v] })
		if len(a) != len(b) {
			return false
		}
		am := map[string]bool{}
		for _, c := range a {
			am[key(c)] = true
		}
		for _, c := range b {
			if !am[key(c)] {
				return false
			}
		}
		// Lemma 1: cf ∪ a must be exactly the maximal cliques of g.
		union := map[string]bool{}
		for _, c := range cf {
			union[key(c)] = true
		}
		for _, c := range a {
			union[key(c)] = true
		}
		if len(union) != len(all) {
			return false
		}
		for _, c := range all {
			if !union[key(c)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Filter never keeps a clique contained in cf and never drops one
// that is not, per brute-force subset checking.
func TestQuickFilterAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() [][]int32 {
			var out [][]int32
			for i := 0; i < rng.Intn(10)+1; i++ {
				var c []int32
				for v := int32(0); v < 12; v++ {
					if rng.Intn(3) == 0 {
						c = append(c, v)
					}
				}
				if len(c) > 0 {
					out = append(out, c)
				}
			}
			return out
		}
		cf, ch := mk(), mk()
		got := map[string]bool{}
		for _, c := range Filter(ch, cf) {
			got[key(c)] = true
		}
		for _, c := range ch {
			contained := false
			for _, f := range cf {
				fs := map[int32]bool{}
				for _, v := range f {
					fs[v] = true
				}
				all := true
				for _, v := range c {
					if !fs[v] {
						all = false
						break
					}
				}
				if all {
					contained = true
					break
				}
			}
			if got[key(c)] == contained {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var cf, ch [][]int32
	for i := 0; i < 2000; i++ {
		var c []int32
		base := int32(rng.Intn(5000))
		for j := int32(0); j < int32(rng.Intn(8)+2); j++ {
			c = append(c, base+j)
		}
		cf = append(cf, c)
	}
	for i := 0; i < 500; i++ {
		var c []int32
		base := int32(rng.Intn(5000))
		for j := int32(0); j < int32(rng.Intn(5)+2); j++ {
			c = append(c, base+2*j)
		}
		ch = append(ch, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Filter(ch, cf)
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
