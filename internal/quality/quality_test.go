package quality

import (
	"math"
	"testing"
	"testing/quick"

	"mce/internal/community"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

func TestEvaluateClique(t *testing.T) {
	g := graph.Complete(5)
	s := Evaluate(g, []int32{0, 1, 2, 3, 4})
	if s.Density != 1 || s.CutEdges != 0 || s.Conductance != 0 {
		t.Fatalf("K5 score = %+v", s)
	}
	if s.TrianglePart != 1 {
		t.Fatalf("K5 triangle participation = %v", s.TrianglePart)
	}
}

func TestEvaluateWithCut(t *testing.T) {
	// Triangle {0,1,2} with one external edge 2-3.
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	s := Evaluate(g, []int32{0, 1, 2})
	if s.InternalEdges != 3 || s.CutEdges != 1 {
		t.Fatalf("edges = %+v", s)
	}
	want := 1.0 / 7.0
	if math.Abs(s.Conductance-want) > 1e-12 {
		t.Fatalf("conductance = %v, want %v", s.Conductance, want)
	}
	// Singleton community: everything zero-ish, no panic.
	s = Evaluate(g, []int32{3})
	if s.Density != 0 || s.TrianglePart != 0 {
		t.Fatalf("singleton score = %+v", s)
	}
	if s.CutEdges != 1 {
		t.Fatalf("singleton cut = %d", s.CutEdges)
	}
}

func TestGlobalClustering(t *testing.T) {
	if c := GlobalClustering(graph.Complete(4)); c != 1 {
		t.Fatalf("K4 clustering = %v, want 1", c)
	}
	// Star: wedges but no triangles.
	b := graph.NewBuilder(5)
	for v := int32(1); v < 5; v++ {
		b.AddEdge(0, v)
	}
	if c := GlobalClustering(b.Build()); c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
	if c := GlobalClustering(graph.Empty(3)); c != 0 {
		t.Fatalf("empty clustering = %v", c)
	}
	// Social surrogates are strongly clustered, BA graphs much less.
	hk := GlobalClustering(gen.HolmeKim(1000, 5, 0.8, 7))
	ba := GlobalClustering(gen.BarabasiAlbert(1000, 5, 7))
	if hk <= ba {
		t.Fatalf("Holme–Kim clustering %v not above BA %v", hk, ba)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int32
		want float64
	}{
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 1},
		{[]int32{1, 2}, []int32{3, 4}, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 0.5},
		{nil, nil, 1},
		{[]int32{1}, nil, 0},
		{[]int32{1, 1, 2}, []int32{1, 2}, 1}, // duplicates collapse
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRecoveryEmptyTruth(t *testing.T) {
	if _, _, err := Recovery(nil, nil); err == nil {
		t.Fatal("empty truth accepted")
	}
}

func TestRecoveryPerfect(t *testing.T) {
	truth := [][]int32{{0, 1, 2}, {3, 4, 5}}
	avg, per, err := Recovery(truth, [][]int32{{3, 4, 5}, {0, 1, 2}})
	if err != nil || avg != 1 || per[0] != 1 || per[1] != 1 {
		t.Fatalf("avg=%v per=%v err=%v", avg, per, err)
	}
}

func TestCliquePercolationRecoversPlantedPartition(t *testing.T) {
	// The headline integration test: CPM over the engine's maximal cliques
	// recovers a strong planted partition nearly perfectly.
	g, truth := gen.PlantedPartition(gen.PlantedPartitionSpec{
		Communities: 4, Size: 12, PIn: 0.85, POut: 0.01, Seed: 11,
	})
	cliques, err := mcealg.Collect(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists})
	if err != nil {
		t.Fatal(err)
	}
	comms, err := community.Detect(cliques, 4)
	if err != nil {
		t.Fatal(err)
	}
	detected := make([][]int32, len(comms))
	for i, c := range comms {
		detected[i] = c.Nodes
	}
	avg, per, err := Recovery(truth, detected)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 0.8 {
		t.Fatalf("planted partition recovery = %.2f (per group %v), want ≥ 0.8", avg, per)
	}
}

func TestRankByConductance(t *testing.T) {
	// Community {0,1,2} is perfectly separated; {3,4} leaks via 4-5.
	g := fromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5},
	})
	order := RankByConductance(g, [][]int32{{3, 4}, {0, 1, 2}})
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v", order)
	}
}

// Property: conductance and density are always in [0, 1] and a set with no
// cut edges has conductance 0.
func TestQuickScoreBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(25, 0.2, seed)
		for v := int32(0); v < 20; v += 5 {
			s := Evaluate(g, []int32{v, v + 1, v + 2, v + 3, v + 4})
			if s.Density < 0 || s.Density > 1 ||
				s.Conductance < 0 || s.Conductance > 1 ||
				s.TrianglePart < 0 || s.TrianglePart > 1 {
				return false
			}
			if s.CutEdges == 0 && s.Conductance != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Jaccard is symmetric and bounded.
func TestQuickJaccardSymmetric(t *testing.T) {
	f := func(a, b []uint8) bool {
		as := make([]int32, len(a))
		bs := make([]int32, len(b))
		for i, v := range a {
			as[i] = int32(v)
		}
		for i, v := range b {
			bs[i] = int32(v)
		}
		x, y := Jaccard(as, bs), Jaccard(bs, as)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCover(t *testing.T) {
	cs := [][]int32{{0, 1, 2}, {2, 3}}
	s := Cover(10, cs)
	if s.Coverage != 0.4 {
		t.Fatalf("Coverage = %v, want 0.4", s.Coverage)
	}
	if s.MaxMemberships != 2 {
		t.Fatalf("MaxMemberships = %d", s.MaxMemberships)
	}
	if s.AvgMemberships != 1.25 {
		t.Fatalf("AvgMemberships = %v", s.AvgMemberships)
	}
	empty := Cover(5, nil)
	if empty.Coverage != 0 || empty.AvgMemberships != 0 || empty.MaxMemberships != 0 {
		t.Fatalf("empty cover = %+v", empty)
	}
	if z := Cover(0, cs); z.Coverage != 0 {
		t.Fatalf("zero-node cover = %+v", z)
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
