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

func TestDecomposeOrderProperty(t *testing.T) {
	// In a degeneracy order, every node has ≤ degeneracy neighbours later
	// in the order. Check on a clique plus pendant path.
	b := graph.NewBuilder(10)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	for v := int32(4); v < 9; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	d := Decompose(g)
	if d.Degeneracy != 4 {
		t.Fatalf("degeneracy = %d, want 4", d.Degeneracy)
	}
	assertDegeneracyOrder(t, g, d)
}

func assertDegeneracyOrder(t *testing.T, g *graph.Graph, d *Decomposition) {
	t.Helper()
	if len(d.Order) != g.N() {
		t.Fatalf("order covers %d of %d nodes", len(d.Order), g.N())
	}
	seen := make([]bool, g.N())
	for _, v := range d.Order {
		if seen[v] {
			t.Fatalf("node %d repeated in order", v)
		}
		seen[v] = true
	}
	for _, v := range d.Order {
		later := 0
		for _, u := range g.Neighbors(v) {
			if d.Position[u] > d.Position[v] {
				later++
			}
		}
		if later > d.Degeneracy {
			t.Fatalf("node %d has %d later neighbours > degeneracy %d",
				v, later, d.Degeneracy)
		}
	}
}

func TestCorenessMonotone(t *testing.T) {
	// Coreness recorded along the removal order never decreases, and the
	// final value equals the degeneracy.
	g := graph.Complete(6)
	d := Decompose(g)
	for _, v := range d.Order {
		if int(d.Coreness[v]) > d.Degeneracy {
			t.Fatalf("coreness %d exceeds degeneracy %d", d.Coreness[v], d.Degeneracy)
		}
	}
	last := d.Order[len(d.Order)-1]
	if int(d.Coreness[last]) != d.Degeneracy {
		t.Fatalf("last removed node coreness = %d, want %d", d.Coreness[last], d.Degeneracy)
	}
}

func TestCorenessTwoCommunities(t *testing.T) {
	// K4 on {0..3} plus path {4,5}: K4 members have coreness 3, path 1.
	b := graph.NewBuilder(6)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(4, 5)
	d := Decompose(b.Build())
	for v := int32(0); v < 4; v++ {
		if d.Coreness[v] != 3 {
			t.Errorf("coreness[%d] = %d, want 3", v, d.Coreness[v])
		}
	}
	for v := int32(4); v < 6; v++ {
		if d.Coreness[v] != 1 {
			t.Errorf("coreness[%d] = %d, want 1", v, d.Coreness[v])
		}
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

// Property: degeneracy matches a naive O(n^2) peeling reference, and the
// degeneracy order invariant holds on random graphs.
func TestQuickDegeneracyMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		d := Decompose(g)
		if d.Degeneracy != naiveDegeneracy(g) {
			return false
		}
		for _, v := range d.Order {
			later := 0
			for _, u := range g.Neighbors(v) {
				if d.Position[u] > d.Position[v] {
					later++
				}
			}
			if later > d.Degeneracy {
				return false
			}
		}
		return true
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

func BenchmarkDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	gb := graph.NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		gb.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := gb.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decompose(g)
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
		if want := Decompose(g).Degeneracy; d != want {
			t.Fatalf("round %d: scratch degeneracy %d, Decompose %d", round, d, want)
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
