package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"mce/internal/gen"
	"mce/internal/graph"
)

// referenceInduced is the routine the induction kernel replaced, kept as
// the oracle: relabel through a map, hand the edges to a Builder.
func referenceInduced(g *graph.Graph, nodes []int32) (*graph.Graph, []int32) {
	newID := make(map[int32]int32, len(nodes))
	origIDs := make([]int32, 0, len(nodes))
	for _, v := range nodes {
		if _, dup := newID[v]; dup {
			continue
		}
		newID[v] = int32(len(origIDs))
		origIDs = append(origIDs, v)
	}
	b := graph.NewBuilder(len(origIDs))
	for nu, u := range origIDs {
		for _, w := range g.Neighbors(u) {
			if nw, ok := newID[w]; ok && int32(nu) < nw {
				b.AddEdge(int32(nu), nw)
			}
		}
	}
	return b.Build(), origIDs
}

// requireSameInduced compares node count, every row (and with the rows the
// offsets) and origIDs exactly.
func requireSameInduced(t *testing.T, what string, got *graph.Graph, gotOrig []int32, want *graph.Graph, wantOrig []int32) {
	t.Helper()
	if !slices.Equal(gotOrig, wantOrig) {
		t.Fatalf("%s: origIDs = %v, want %v", what, gotOrig, wantOrig)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for v := int32(0); v < int32(want.N()); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: row %d = %v, want %v", what, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// starWithHubs is a ring of n nodes plus three hubs adjacent to every node,
// one with the lowest ID, one in the middle, one with the highest.
func starWithHubs(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n))
		for _, hub := range []int{0, n / 2, n - 1} {
			b.AddEdge(int32(hub), int32(v))
		}
	}
	return b.Build()
}

func inducedTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er":        gen.ErdosRenyi(300, 0.05, 11),
		"holme-kim": gen.HolmeKim(400, 5, 0.7, 12),
		"star-hubs": starWithHubs(257),
	}
}

// randomSelection draws about a third of g's nodes, ascending.
func randomSelection(rng *rand.Rand, g *graph.Graph) []int32 {
	var sel []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if rng.Intn(3) == 0 {
			sel = append(sel, v)
		}
	}
	return sel
}

func TestInducedMatchesReference(t *testing.T) {
	for name, g := range inducedTestGraphs() {
		rng := rand.New(rand.NewSource(int64(g.N())))
		for round := 0; round < 20; round++ {
			asc := randomSelection(rng, g)
			shuffled := slices.Clone(asc)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			duplicated := slices.Clone(shuffled)
			for i := 0; i < len(shuffled)/2; i++ {
				at := rng.Intn(len(duplicated) + 1)
				duplicated = slices.Insert(duplicated, at, shuffled[rng.Intn(len(shuffled))])
			}
			all := make([]int32, g.N())
			for v := range all {
				all[v] = int32(v)
			}
			for kind, nodes := range map[string][]int32{
				"ascending": asc, "shuffled": shuffled, "duplicated": duplicated,
				"ascending+dup": append(slices.Clone(asc), asc...),
				"all":           all, "nil": nil, "empty": {},
			} {
				got, gotOrig := graph.Induced(g, nodes)
				want, wantOrig := referenceInduced(g, nodes)
				requireSameInduced(t, name+"/"+kind, got, gotOrig, want, wantOrig)
			}
		}
	}
}

// One Inducer serves many overlapping selections: each result must equal a
// fresh reference build, so nothing of one call is visible to the next.
func TestInducerReuse(t *testing.T) {
	for name, g := range inducedTestGraphs() {
		rng := rand.New(rand.NewSource(7))
		in := graph.NewInducer(g)
		for call := 0; call < 1000; call++ {
			nodes := randomSelection(rng, g)
			switch call % 4 {
			case 1:
				rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			case 2:
				nodes = append(nodes, nodes[:len(nodes)/2]...)
			case 3:
				nodes = nodes[:rng.Intn(len(nodes)+1)]
			}
			got, gotOrig := in.Induced(nodes)
			want, wantOrig := referenceInduced(g, nodes)
			requireSameInduced(t, name, got, gotOrig, want, wantOrig)
		}
	}
}

// Induced allocates what it returns and nothing else: origIDs, offsets, flat
// and the Graph. Scratch, once its buffers have seen the selection's size,
// allocates nothing, and hands an ascending duplicate-free list back as
// origIDs without copying it.
func TestInducedAllocs(t *testing.T) {
	g := gen.HolmeKim(2000, 8, 0.7, 3)
	in := graph.NewInducer(g)
	nodes := append([]int32{5}, g.Neighbors(5)...)
	slices.Sort(nodes)
	if avg := testing.AllocsPerRun(100, func() { in.Induced(nodes) }); avg > 4 {
		t.Fatalf("Inducer.Induced allocates %.1f times per call, want ≤ 4", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { in.Scratch(nodes) }); avg != 0 {
		t.Fatalf("a warm Inducer.Scratch allocates %.1f times per call, want 0", avg)
	}
	if _, orig := in.Scratch(nodes); &orig[0] != &nodes[0] {
		t.Fatal("Scratch copied an ascending, duplicate-free node list")
	}
}

// Scratch is Induced in the inducer's buffers: equal to the reference for
// every shape of node list, and overwritten — not corrupted — by the next
// call.
func TestScratchMatchesReference(t *testing.T) {
	for name, g := range inducedTestGraphs() {
		rng := rand.New(rand.NewSource(11))
		in := graph.NewInducer(g)
		for call := 0; call < 300; call++ {
			nodes := randomSelection(rng, g)
			switch call % 3 {
			case 1:
				rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			case 2:
				nodes = append(nodes, nodes[:len(nodes)/2]...)
			}
			got, gotOrig := in.Scratch(nodes)
			want, wantOrig := referenceInduced(g, nodes)
			requireSameInduced(t, name, got, gotOrig, want, wantOrig)
		}
	}
}

// closedNeighbourhoods returns {v} ∪ N(v), ascending, of every node of
// degree < m: the shape of the node lists BLOCKS induces over.
func closedNeighbourhoods(g *graph.Graph, m int) [][]int32 {
	var sels [][]int32
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) < m {
			nodes := append([]int32{v}, g.Neighbors(v)...)
			slices.Sort(nodes)
			sels = append(sels, nodes)
		}
	}
	return sels
}

var benchSink *graph.Graph

func BenchmarkInduced(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	sels := closedNeighbourhoods(g, 56)
	in := graph.NewInducer(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = in.Induced(sels[i%len(sels)])
	}
}
