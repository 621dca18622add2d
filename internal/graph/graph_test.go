package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := Empty(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("Empty(5): n=%d m=%d", g.N(), g.M())
	}
	for v := int32(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
	if g.Density() != 0 {
		t.Errorf("Density = %f, want 0", g.Density())
	}
}

func TestZeroNodeGraph(t *testing.T) {
	g := Empty(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("Empty(0): n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 0 || g.Density() != 0 {
		t.Fatalf("zero-node graph stats wrong")
	}
	if len(g.Edges()) != 0 {
		t.Fatalf("zero-node graph has edges")
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(6)
	if g.N() != 6 || g.M() != 15 {
		t.Fatalf("Complete(6): n=%d m=%d, want 6, 15", g.N(), g.M())
	}
	if g.Density() != 1 {
		t.Errorf("Density = %f, want 1", g.Density())
	}
	for u := int32(0); u < 6; u++ {
		for v := int32(0); v < 6; v++ {
			if want := u != v; g.HasEdge(u, v) != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, !want, want)
			}
		}
	}
}

func TestBuilderNormalisation(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop ignored
	b.AddEdge(-1, 3)
	b.AddEdge(3, 99) // out of range ignored
	b.AddEdge(3, 2)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatalf("expected edges missing")
	}
	if g.HasEdge(2, 2) {
		t.Fatalf("self loop survived")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := fromEdges(5, []Edge{{3, 1}, {3, 0}, {3, 4}, {3, 2}})
	adj := g.Neighbors(3)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatalf("Neighbors not sorted: %v", adj)
	}
	if len(adj) != 4 {
		t.Fatalf("Degree(3) = %d, want 4", len(adj))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {0, 2}, {3, 4}}
	g := fromEdges(5, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges count = %d, want %d", len(out), len(in))
	}
	g2 := fromEdges(5, out)
	for _, e := range in {
		if !g2.HasEdge(e.U, e.V) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestDegreeHistogramTruncate(t *testing.T) {
	// Star on 5 nodes: centre degree 4, leaves degree 1.
	g := fromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	h := g.DegreeHistogram(2, true)
	if h[0] != 0 || h[1] != 4 || h[2] != 1 {
		t.Fatalf("truncated histogram = %v", h)
	}
	h = g.DegreeHistogram(2, false)
	if len(h) != 5 || h[4] != 1 || h[2] != 0 {
		t.Fatalf("extended histogram = %v", h)
	}
}

func TestInduced(t *testing.T) {
	// Path 0-1-2-3 plus chord 0-2.
	g := fromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	sub, orig := Induced(g, []int32{2, 0, 3})
	if sub.N() != 3 {
		t.Fatalf("induced N = %d, want 3", sub.N())
	}
	// orig maps new IDs back: new0=2, new1=0, new2=3.
	if orig[0] != 2 || orig[1] != 0 || orig[2] != 3 {
		t.Fatalf("origIDs = %v", orig)
	}
	// Edges among {2,0,3}: 0-2 and 2-3 → new (0,1) and (0,2).
	if sub.M() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(0, 2) || sub.HasEdge(1, 2) {
		t.Fatalf("induced edges wrong: %v", sub.Edges())
	}
}

func TestInducedDuplicatesIgnored(t *testing.T) {
	g := fromEdges(3, []Edge{{0, 1}, {1, 2}})
	sub, orig := Induced(g, []int32{1, 1, 2})
	if sub.N() != 2 || len(orig) != 2 {
		t.Fatalf("duplicate nodes not collapsed: n=%d orig=%v", sub.N(), orig)
	}
	if !sub.HasEdge(0, 1) {
		t.Fatalf("edge 1-2 missing from induced subgraph")
	}
}

func TestInducedEmptySelection(t *testing.T) {
	g := Complete(4)
	sub, orig := Induced(g, nil)
	if sub.N() != 0 || len(orig) != 0 {
		t.Fatalf("induced on empty selection: n=%d", sub.N())
	}
}

// Every call leaves the relabel array as it found it: all zero.
func TestInducerUnstamps(t *testing.T) {
	g := Complete(9)
	in := NewInducer(g)
	for _, nodes := range [][]int32{{0, 3, 8}, {8, 8, 1, 0}, nil, {4}} {
		in.Induced(nodes)
		for v, l := range in.local {
			if l != 0 {
				t.Fatalf("after Induced(%v): local[%d] = %d, want 0", nodes, v, l)
			}
		}
	}
}

func TestGrow(t *testing.T) {
	b := NewBuilder(2)
	b.Grow(5)
	b.AddEdge(3, 4)
	g := b.Build()
	if g.N() != 5 || !g.HasEdge(3, 4) {
		t.Fatalf("Grow failed: n=%d", g.N())
	}
	b.Grow(3) // shrinking is a no-op
	if b.N() != 5 {
		t.Fatalf("Grow shrank the builder")
	}
}

func TestString(t *testing.T) {
	if got := Complete(3).String(); got != "graph{n=3 m=3}" {
		t.Errorf("String = %q", got)
	}
}

// Property: for random edge sets, HasEdge matches a reference adjacency map,
// degrees sum to 2M, and adjacency is symmetric and sorted.
func TestQuickBuildConsistency(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%40) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		ref := map[[2]int32]bool{}
		for i := 0; i < 3*n; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				ref[[2]int32{u, v}] = true
			}
		}
		g := b.Build()
		if g.M() != len(ref) {
			return false
		}
		degSum := 0
		for v := int32(0); v < int32(n); v++ {
			adj := g.Neighbors(v)
			degSum += len(adj)
			for i := 1; i < len(adj); i++ {
				if adj[i-1] >= adj[i] {
					return false // unsorted or duplicate
				}
			}
			for _, w := range adj {
				if !g.HasEdge(w, v) { // symmetry
					return false
				}
			}
		}
		if degSum != 2*g.M() {
			return false
		}
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				key := [2]int32{u, v}
				if u > v {
					key = [2]int32{v, u}
				}
				if g.HasEdge(u, v) != ref[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random duplicate-laden edge streams (reversed repeats, self
// loops, out-of-range endpoints), Build yields exactly the CSR of a
// map-of-sets oracle: every row its sorted neighbour set, in exact-size
// storage.
func TestQuickBuilderEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		b := NewBuilder(n)
		adj := make([]map[int32]bool, n)
		for v := range adj {
			adj[v] = map[int32]bool{}
		}
		for i := 0; i < 5*n; i++ {
			u, v := int32(rng.Intn(n+2)-1), int32(rng.Intn(n+2)-1)
			b.AddEdge(u, v)
			if rng.Intn(3) == 0 {
				b.AddEdge(v, u)
			}
			if u != v && u >= 0 && v >= 0 && int(u) < n && int(v) < n {
				adj[u][v], adj[v][u] = true, true
			}
		}
		wantOffsets, wantFlat := []int32{0}, []int32{}
		for v := range adj {
			row := make([]int32, 0, len(adj[v]))
			for u := range adj[v] {
				row = append(row, u)
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			wantFlat = append(wantFlat, row...)
			wantOffsets = append(wantOffsets, int32(len(wantFlat)))
		}
		offsets, flat := b.Build().CSR()
		return slices.Equal(offsets, wantOffsets) && slices.Equal(flat, wantFlat) &&
			cap(offsets) == len(offsets) && cap(flat) == len(flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Induced preserves exactly the edges with both endpoints selected.
func TestQuickInduced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 5
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		var sel []int32
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(v))
			}
		}
		sub, orig := Induced(g, sel)
		if sub.N() != len(sel) {
			return false
		}
		for nu := int32(0); nu < int32(sub.N()); nu++ {
			for nv := nu + 1; nv < int32(sub.N()); nv++ {
				if sub.HasEdge(nu, nv) != g.HasEdge(orig[nu], orig[nv]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	edges := make([]Edge, 0, 10*n)
	for i := 0; i < 10*n; i++ {
		edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fromEdges(n, edges)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := Complete(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.HasEdge(int32(i%500), int32((i*7)%500))
	}
}

// TestFromCSRAdoptsWhatCSRReturns: a graph's own arrays come back as the
// same graph, without a copy.
func TestFromCSRAdoptsWhatCSRReturns(t *testing.T) {
	for _, g := range []*Graph{Empty(0), Empty(3), Complete(5), fromEdges(6, []Edge{{0, 3}, {3, 5}, {1, 2}, {2, 3}})} {
		offsets, flat := g.CSR()
		h, err := FromCSR(offsets, flat)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if _, hflat := h.CSR(); h.N() != g.N() || h.M() != g.M() || (len(flat) > 0 && &hflat[0] != &flat[0]) {
			t.Fatalf("%v came back as %v, or copied", g, h)
		}
	}
}

// TestFromCSRRejects: arrays that are not a simple undirected graph in CSR
// form are an error, never a Graph that breaks HasEdge later.
func TestFromCSRRejects(t *testing.T) {
	cases := []struct {
		name          string
		offsets, flat []int32
	}{
		{"no offsets", nil, nil},
		{"offsets start late", []int32{1, 2}, []int32{0, 0}},
		{"offsets stop short of flat", []int32{0, 1, 2}, []int32{1, 0, 0}},
		{"offsets overrun flat", []int32{0, 1, 5}, []int32{1, 0}},
		{"offsets decrease", []int32{0, 2, 1, 2}, []int32{1, 0}},
		{"unsorted row", []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}},
		{"repeated neighbour", []int32{0, 2, 4}, []int32{1, 1, 0, 0}},
		{"self loop", []int32{0, 1, 1}, []int32{0}},
		{"neighbour out of range", []int32{0, 1, 2}, []int32{1, 2}},
		{"negative neighbour", []int32{0, 1, 2}, []int32{-1, 0}},
		{"edge missing from the larger row", []int32{0, 1, 1}, []int32{1}},
		{"edge missing from the smaller row", []int32{0, 0, 1}, []int32{0}},
		{"rows disagree in the middle", []int32{0, 2, 4, 6, 7}, []int32{1, 2, 0, 2, 0, 3, 2}},
	}
	for _, tc := range cases {
		if g, err := FromCSR(tc.offsets, tc.flat); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, g)
		}
	}
}

// fromEdges builds a graph with n nodes from an edge list, normalising as
// Builder does.
func fromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
