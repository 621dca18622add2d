package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mce/internal/graph"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build()
}

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	return b.Build()
}

func TestDegeneracyKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.Empty(7), 0},
		{"single-node", graph.Empty(1), 0},
		{"zero-node", graph.Empty(0), 0},
		{"path10", path(10), 1},
		{"cycle8", cycle(8), 2},
		{"K5", graph.Complete(5), 4},
		{"K2", graph.Complete(2), 1},
	}
	for _, c := range cases {
		if got := Degeneracy(c.g); got != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

// cliquePlusPath is K5 on 0..4 with the path 4-5-…-9 hanging off node 4.
func cliquePlusPath() *graph.Graph {
	b := graph.NewBuilder(10)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	for v := int32(4); v < 9; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// twoCommunities is K4 on 0..3 beside the separate edge 4-5.
func twoCommunities() *graph.Graph {
	b := graph.NewBuilder(6)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(4, 5)
	return b.Build()
}

func TestDecomposeOrderProperty(t *testing.T) {
	// A degeneracy order, in which every node has ≤ degeneracy neighbours
	// later in the order, exists exactly when every non-empty induced
	// subgraph has a node of degree ≤ degeneracy. Check that form, with
	// the degeneracy of each subgraph no larger, on a clique plus pendant
	// path.
	g := cliquePlusPath()
	d := Degeneracy(g)
	if d != 4 {
		t.Fatalf("degeneracy = %d, want 4", d)
	}
	n := g.N()
	for mask := 1; mask < 1<<n; mask++ {
		var nodes []int32
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				nodes = append(nodes, int32(v))
			}
		}
		sub, _ := graph.Induced(g, nodes)
		minDeg := sub.N()
		for v := int32(0); v < int32(sub.N()); v++ {
			if deg := sub.Degree(v); deg < minDeg {
				minDeg = deg
			}
		}
		if minDeg > d {
			t.Fatalf("subgraph %v has minimum degree %d > degeneracy %d", nodes, minDeg, d)
		}
		if sd := Degeneracy(sub); sd > d {
			t.Fatalf("subgraph %v has degeneracy %d > %d", nodes, sd, d)
		}
	}
}

func TestCorenessTwoCommunities(t *testing.T) {
	// K4 on {0..3} plus edge {4,5}: the K4 is a 3-core, the edge only a
	// 1-core, and the whole graph's degeneracy is the larger of the two.
	g := twoCommunities()
	if got := Degeneracy(g); got != 3 {
		t.Errorf("degeneracy = %d, want 3", got)
	}
	k4, _ := graph.Induced(g, []int32{0, 1, 2, 3})
	if got := Degeneracy(k4); got != 3 {
		t.Errorf("K4 community degeneracy = %d, want 3", got)
	}
	edge, _ := graph.Induced(g, []int32{4, 5})
	if got := Degeneracy(edge); got != 1 {
		t.Errorf("edge community degeneracy = %d, want 1", got)
	}
}

func TestDegeneracyStar(t *testing.T) {
	// Star: one hub connected to 9 leaves. 1-degenerate despite max degree 9.
	b := graph.NewBuilder(10)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	if got := Degeneracy(g); got != 1 {
		t.Fatalf("star degeneracy = %d, want 1", got)
	}
}

func TestDStar(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.Empty(4), 0},
		{"K5", graph.Complete(5), 4},   // 5 nodes of degree 4 ≥ 4
		{"path4", path(4), 2},          // 2 inner nodes of degree 2
		{"edge", graph.Complete(2), 1}, // 2 nodes of degree 1
		{"zero-node", graph.Empty(0), 0},
	}
	for _, c := range cases {
		if got := DStar(c.g); got != c.want {
			t.Errorf("%s: d* = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDStarStar(t *testing.T) {
	// Star with 9 leaves: only one node has degree ≥ 2, so d* = 1.
	b := graph.NewBuilder(10)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(0, v)
	}
	if got := DStar(b.Build()); got != 1 {
		t.Fatalf("star d* = %d, want 1", got)
	}
}

func TestMeasure(t *testing.T) {
	g := graph.Complete(5)
	f := Measure(g)
	if f.Nodes != 5 || f.Edges != 10 || f.Degeneracy != 4 || f.DStar != 4 {
		t.Fatalf("Measure(K5) = %+v", f)
	}
	if f.Density != 1 {
		t.Fatalf("Density = %f, want 1", f.Density)
	}
}

// Property: degeneracy matches a naive O(n^2) peeling reference on random
// graphs.
func TestQuickDegeneracyMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		return Degeneracy(g) == naiveDegeneracy(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// naiveDegeneracy peels minimum-degree nodes with a quadratic scan.
func naiveDegeneracy(g *graph.Graph) int {
	n := g.N()
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		alive[v] = true
	}
	degeneracy := 0
	for left := n; left > 0; left-- {
		min, minV := 1<<30, -1
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < min {
				min, minV = deg[v], v
			}
		}
		if min > degeneracy {
			degeneracy = min
		}
		alive[minV] = false
		for _, u := range g.Neighbors(int32(minV)) {
			if alive[u] {
				deg[u]--
			}
		}
	}
	return degeneracy
}

// Property: d* equals the brute-force h-index of the degree sequence.
func TestQuickDStarMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		want := 0
		for d := 0; d <= n; d++ {
			cnt := 0
			for v := int32(0); v < int32(n); v++ {
				if g.Degree(v) >= d {
					cnt++
				}
			}
			if cnt >= d {
				want = d
			}
		}
		return DStar(g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDegeneracy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	gb := graph.NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		gb.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := gb.Build()
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Degeneracy(g)
	}
}

// The bound is an upper bound, tight on cliques, and the scratch-backed
// degeneracy and d* are the allocating ones.
func TestDegeneracyBoundHolds(t *testing.T) {
	for k := 1; k < 40; k++ {
		if got := DegeneracyBound(graph.Complete(k)); got != k-1 {
			t.Fatalf("bound on K%d = %d, want %d", k, got, k-1)
		}
	}
	if got := DegeneracyBound(graph.Empty(0)); got != 0 {
		t.Fatalf("bound on the empty graph = %d", got)
	}
	rng := rand.New(rand.NewSource(9))
	var s Scratch
	var last *graph.Graph
	const rounds = 60
	for round := 0; round < rounds; round++ {
		n := 1 + rng.Intn(120)
		b := graph.NewBuilder(n)
		for e := rng.Intn(n*n/3 + 1); e > 0; e-- {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		d, bound := s.Degeneracy(g), DegeneracyBound(g)
		if d > bound {
			t.Fatalf("round %d: degeneracy %d above its bound %d", round, d, bound)
		}
		if want := naiveDegeneracy(g); d != want {
			t.Fatalf("round %d: scratch degeneracy %d, naive peeling %d", round, d, want)
		}
		if got, want := s.DStar(g), DStar(g); got != want {
			t.Fatalf("round %d: scratch d* %d, want %d", round, got, want)
		}
		last = g
	}
	if s.Peels != rounds {
		t.Fatalf("Peels = %d after %d peelings", s.Peels, rounds)
	}
	big := graph.Complete(130)
	s.Degeneracy(big)
	if allocs := testing.AllocsPerRun(10, func() { s.Degeneracy(last); s.DStar(big) }); allocs != 0 {
		t.Fatalf("a warm scratch made %v allocations", allocs)
	}
}
