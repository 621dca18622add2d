package incremental

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

// assertMatchesStatic checks the tracker's clique set against a fresh
// enumeration of an equivalent static graph.
func assertMatchesStatic(t *testing.T, tr *Tracker) {
	t.Helper()
	b := graph.NewBuilder(tr.N())
	for v := int32(0); v < int32(tr.N()); v++ {
		for u := range tr.adj[v] {
			b.AddEdge(v, u)
		}
	}
	g := b.Build()
	want := map[string]bool{}
	mcealg.ReferenceEnumerate(g, func(c []int32) { want[key(c)] = true })
	got := tr.Cliques()
	if len(got) != len(want) {
		t.Fatalf("tracker has %d cliques, want %d", len(got), len(want))
	}
	for _, c := range got {
		if !want[key(c)] {
			t.Fatalf("tracker holds non-maximal or phantom clique {%s}", key(c))
		}
	}
}

func TestNewEmptySingletons(t *testing.T) {
	tr := newEmpty(4)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4 singletons", tr.Len())
	}
	assertMatchesStatic(t, tr)
}

func TestNewFromGraph(t *testing.T) {
	g := gen.HolmeKim(120, 4, 0.6, 5)
	tr, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != g.N() || tr.M() != g.M() {
		t.Fatalf("tracker shape n=%d m=%d, want n=%d m=%d", tr.N(), tr.M(), g.N(), g.M())
	}
	assertMatchesStatic(t, tr)
}

func TestAddEdgeTriangle(t *testing.T) {
	tr := newEmpty(3)
	added, removed, err := tr.AddEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || key(added[0]) != "0,1" {
		t.Fatalf("added = %v", added)
	}
	// Singletons {0} and {1} are subsumed.
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	if _, _, err := tr.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	added, removed, err = tr.AddEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the triangle: {0,1,2} appears; {0,1} and {1,2} die.
	if len(added) != 1 || key(added[0]) != "0,1,2" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	assertMatchesStatic(t, tr)
}

func TestAddEdgeIdempotent(t *testing.T) {
	tr := newEmpty(3)
	if _, _, err := tr.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	added, removed, err := tr.AddEdge(0, 1)
	if err != nil || added != nil || removed != nil {
		t.Fatalf("re-adding changed state: %v %v %v", added, removed, err)
	}
	if _, _, err := tr.AddEdge(1, 1); err != nil {
		t.Fatalf("self loop errored instead of no-op: %v", err)
	}
	if tr.M() != 1 {
		t.Fatalf("M = %d, want 1", tr.M())
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	tr := newEmpty(2)
	if _, _, err := tr.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, _, err := tr.RemoveEdge(-1, 0); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
}

func TestRemoveEdgeTriangle(t *testing.T) {
	tr := newEmpty(3)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		if _, _, err := tr.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	added, removed, err := tr.RemoveEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || key(removed[0]) != "0,1,2" {
		t.Fatalf("removed = %v", removed)
	}
	// Both {0,1} and {1,2} become maximal.
	if len(added) != 2 || key(added[0]) != "0,1" || key(added[1]) != "1,2" {
		t.Fatalf("added = %v", added)
	}
	assertMatchesStatic(t, tr)
}

func TestRemoveEdgeToIsolation(t *testing.T) {
	tr := newEmpty(2)
	if _, _, err := tr.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	added, removed, err := tr.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || key(removed[0]) != "0,1" {
		t.Fatalf("removed = %v", removed)
	}
	if len(added) != 2 {
		t.Fatalf("added = %v, want the two singletons", added)
	}
	assertMatchesStatic(t, tr)
}

func TestRemoveAbsentEdge(t *testing.T) {
	tr := newEmpty(3)
	added, removed, err := tr.RemoveEdge(0, 1)
	if err != nil || added != nil || removed != nil {
		t.Fatalf("removing absent edge changed state")
	}
}

func TestAddEdgeSharedNeighborhood(t *testing.T) {
	// 0 and 1 share neighbours {2,3} with 2-3 adjacent: adding 0-1 creates
	// {0,1,2,3} and subsumes {0,2,3} and {1,2,3}.
	tr := newEmpty(4)
	for _, e := range [][2]int32{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		if _, _, err := tr.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	added, removed, err := tr.AddEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || key(added[0]) != "0,1,2,3" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	assertMatchesStatic(t, tr)
}

func TestAddEdgeDisjointCommonCliques(t *testing.T) {
	// Common neighbourhood {2,3} with 2-3 NOT adjacent: two new cliques
	// {0,1,2} and {0,1,3}.
	tr := newEmpty(4)
	for _, e := range [][2]int32{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		if _, _, err := tr.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	added, _, err := tr.AddEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || key(added[0]) != "0,1,2" || key(added[1]) != "0,1,3" {
		t.Fatalf("added = %v", added)
	}
	assertMatchesStatic(t, tr)
}

func TestCliquesOf(t *testing.T) {
	tr := newEmpty(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}} {
		if _, _, err := tr.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cs := tr.CliquesOf(1)
	if len(cs) != 2 || key(cs[0]) != "0,1" || key(cs[1]) != "1,2" {
		t.Fatalf("CliquesOf(1) = %v", cs)
	}
	if tr.CliquesOf(99) != nil {
		t.Fatalf("CliquesOf out of range should be nil")
	}
}

func TestReturnedDeltasAreConsistent(t *testing.T) {
	// The (added, removed) deltas, applied to the previous clique set,
	// must yield the new clique set.
	rng := rand.New(rand.NewSource(8))
	tr := newEmpty(25)
	prev := map[string]bool{}
	for _, c := range tr.Cliques() {
		prev[key(c)] = true
	}
	for step := 0; step < 300; step++ {
		u := int32(rng.Intn(25))
		v := int32(rng.Intn(25))
		var added, removed [][]int32
		var err error
		if rng.Intn(3) == 0 {
			added, removed, err = tr.RemoveEdge(u, v)
		} else {
			added, removed, err = tr.AddEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range removed {
			if !prev[key(c)] {
				t.Fatalf("step %d: removed clique {%s} was not present", step, key(c))
			}
			delete(prev, key(c))
		}
		for _, c := range added {
			if prev[key(c)] {
				t.Fatalf("step %d: added clique {%s} already present", step, key(c))
			}
			prev[key(c)] = true
		}
		now := tr.Cliques()
		if len(now) != len(prev) {
			t.Fatalf("step %d: delta bookkeeping diverged: %d vs %d", step, len(now), len(prev))
		}
		for _, c := range now {
			if !prev[key(c)] {
				t.Fatalf("step %d: clique {%s} missing from delta-tracked set", step, key(c))
			}
		}
	}
	assertMatchesStatic(t, tr)
}

// Property: after any random sequence of insertions and deletions the
// tracker matches a from-scratch enumeration.
func TestQuickRandomEvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(18) + 4
		tr := newEmpty(n)
		for step := 0; step < 60; step++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			var err error
			if rng.Intn(4) == 0 {
				_, _, err = tr.RemoveEdge(u, v)
			} else {
				_, _, err = tr.AddEdge(u, v)
			}
			if err != nil {
				return false
			}
		}
		b := graph.NewBuilder(n)
		for v := int32(0); v < int32(n); v++ {
			for u := range tr.adj[v] {
				b.AddEdge(v, u)
			}
		}
		want := map[string]bool{}
		mcealg.ReferenceEnumerate(b.Build(), func(c []int32) { want[key(c)] = true })
		got := tr.Cliques()
		if len(got) != len(want) {
			return false
		}
		for _, c := range got {
			if !want[key(c)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: bootstrapping from a graph then deleting every edge one by one
// ends with exactly the singleton cliques.
func TestQuickTeardownToSingletons(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(int(seed%20)+5, 0.3, seed)
		tr, err := New(g)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if _, _, err := tr.RemoveEdge(e.U, e.V); err != nil {
				return false
			}
		}
		if tr.Len() != g.N() || tr.M() != 0 {
			return false
		}
		for _, c := range tr.Cliques() {
			if len(c) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEdgeStream(b *testing.B) {
	g := gen.HolmeKim(3000, 5, 0.7, 12)
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := newEmpty(g.N())
		b.StartTimer()
		for _, e := range edges {
			if _, _, err := tr.AddEdge(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSingleUpdateVsRecompute(b *testing.B) {
	g := gen.HolmeKim(3000, 5, 0.7, 12)
	tr, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental-toggle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := tr.RemoveEdge(10, 11); err != nil {
				b.Fatal(err)
			}
			if _, _, err := tr.AddEdge(10, 11); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcealg.Count(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestAddNode(t *testing.T) {
	tr := newEmpty(2)
	if _, _, err := tr.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	v := tr.AddNode()
	if v != 2 || tr.N() != 3 {
		t.Fatalf("AddNode = %d, N = %d", v, tr.N())
	}
	if tr.Len() != 2 { // {0,1} and the new singleton
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	added, removed, err := tr.AddEdge(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || len(removed) != 1 {
		t.Fatalf("joining the new node: added %v removed %v", added, removed)
	}
	assertMatchesStatic(t, tr)
}

// newEmpty returns a tracker for an edgeless graph with n nodes. Every node
// starts as its own singleton maximal clique.
func newEmpty(n int) *Tracker {
	if n < 0 {
		n = 0
	}
	t := &Tracker{
		n:       n,
		adj:     make([]map[int32]struct{}, n),
		cliques: make(map[int64][]int32),
		byNode:  make([]map[int64]struct{}, n),
	}
	for v := 0; v < n; v++ {
		t.adj[v] = make(map[int32]struct{})
		t.byNode[v] = make(map[int64]struct{})
		t.insertClique([]int32{int32(v)})
	}
	return t
}
