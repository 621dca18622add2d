package dtree

import (
	"fmt"
	"math/rand"
	"testing"

	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

// capDegree returns g with edges dropped until no node has more than d
// neighbours.
func capDegree(g *graph.Graph, d int) *graph.Graph {
	deg := make([]int, g.N())
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if deg[e.U] < d && deg[e.V] < d {
			deg[e.U]++
			deg[e.V]++
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// withPendant returns g plus one new node hung off node 0.
func withPendant(g *graph.Graph) *graph.Graph {
	return fromEdges(g.N()+1, append(g.Edges(), graph.Edge{U: 0, V: int32(g.N())}))
}

// withoutEdge returns g minus its first edge.
func withoutEdge(g *graph.Graph) *graph.Graph {
	return fromEdges(g.N(), g.Edges()[1:])
}

// straddlers returns graphs on both sides of each term of
// kcore.DegeneracyBound for the threshold t: N = t+1 and t+2 (complete
// graphs, degeneracy N−1), M one short of and exactly (t+1)(t+2)/2 (the
// fewest edges a (t+1)-core can have) with the other two terms out of the
// way, and max degree t and t+1 on dense seeded G(n,p) and Holme–Kim graphs.
func straddlers(t int) map[string]*graph.Graph {
	dense := gen.ErdosRenyi(4*t+20, 0.6, int64(t))
	hk := gen.HolmeKim(6*t+30, t+4, 0.7, int64(t))
	return map[string]*graph.Graph{
		"N=t+1":            graph.Complete(t + 1),
		"N=t+2":            graph.Complete(t + 2),
		"M=min-1":          withoutEdge(graph.Complete(t + 2)),
		"M=min-1,pendant":  withPendant(withPendant(withoutEdge(withoutEdge(graph.Complete(t + 2))))),
		"M=min,not-a-core": withPendant(withoutEdge(graph.Complete(t + 2))),
		"maxdeg=t,er":      capDegree(dense, t),
		"maxdeg=t+1,er":    capDegree(dense, t+1),
		"maxdeg=t,hk":      capDegree(hk, t),
		"maxdeg=t+1,hk":    capDegree(hk, t+1),
		"uncapped,er":      dense,
		"uncapped,hk":      hk,
	}
}

// degeneracyThresholds lists the thresholds of the tree's degeneracy tests.
func degeneracyThresholds(n *node, into []float64) []float64 {
	if n.leaf {
		return into
	}
	if n.feat == FeatDegeneracy {
		into = append(into, n.threshold)
	}
	return degeneracyThresholds(n.right, degeneracyThresholds(n.left, into))
}

// randomTree trains a tree on random samples drawn over the feature ranges
// of the test graphs, so its thresholds land among their values.
func randomTree(rng *rand.Rand) *Tree {
	combos := mcealg.AllCombos()
	samples := make([]Sample, 40+rng.Intn(40))
	for i := range samples {
		n := 2 + rng.Intn(300)
		samples[i] = Sample{
			F: kcore.Features{
				Nodes: n, Edges: rng.Intn(n * n / 2), Density: rng.Float64(),
				Degeneracy: rng.Intn(70), DStar: rng.Intn(70),
			},
			Best: combos[rng.Intn(len(combos))],
		}
	}
	return Train(samples, Options{MaxDepth: 3 + rng.Intn(4), MinLeaf: 1})
}

// TestLazyPredictionIsExact: for any tree, PredictGraph is Predict over the
// measured features — on the experiment corpus and block-shaped subgraphs of
// it, and on graphs
// straddling every term of the degeneracy bound at the tree's own
// thresholds — it peels at most once, and never when the bound settles every
// degeneracy test the tree could ask.
func TestLazyPredictionIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	trees := map[string]*Tree{"published": Published()}
	for i := 0; i < 24; i++ {
		trees[fmt.Sprintf("trained-%d", i)] = randomTree(rng)
	}

	graphs := map[string]*graph.Graph{}
	for _, cg := range gen.Corpus(1) {
		if cg.Graph.N() > 300 {
			continue
		}
		graphs[cg.Name] = cg.Graph
		// Block-shaped subgraphs: what the closed neighbourhoods of a few
		// seeds induce (decomp's own tests import this package, so its
		// blocks cannot be built here).
		for seed := int32(0); int(seed) < cg.Graph.N(); seed += 37 {
			ball := []int32{seed}
			for _, v := range cg.Graph.Neighbors(seed) {
				ball = append(append(ball, v), cg.Graph.Neighbors(v)...)
			}
			sub, _ := graph.Induced(cg.Graph, ball[:min(len(ball), 400)])
			graphs[fmt.Sprintf("%s/ball-%d", cg.Name, seed)] = sub
		}
	}
	graphs["empty"], graphs["one-node"], graphs["edgeless"] = graph.Empty(0), graph.Empty(1), graph.Empty(9)

	straddling := map[int]map[string]*graph.Graph{}
	var scratch kcore.Scratch
	decided, peeled := 0, 0
	for treeName, tree := range trees {
		thresholds := degeneracyThresholds(tree.root, nil)
		all := map[string]*graph.Graph{}
		for name, g := range graphs {
			all[name] = g
		}
		for _, thr := range append(thresholds, 25, 52) {
			if thr < 1 || thr > 60 {
				continue
			}
			if straddling[int(thr)] == nil {
				straddling[int(thr)] = straddlers(int(thr))
			}
			for name, g := range straddling[int(thr)] {
				all[fmt.Sprintf("t=%d/%s", int(thr), name)] = g
			}
		}
		for name, g := range all {
			want := SafePredict(tree, kcore.Measure(g))
			before := scratch.Peels
			got := SafePredictGraph(tree, g, &scratch)
			peels := scratch.Peels - before
			if got != want {
				t.Fatalf("%s on %s: lazy prediction %v, want %v (features %+v)", treeName, name, got, want, kcore.Measure(g))
			}
			if peels > 1 {
				t.Fatalf("%s on %s: %d peelings in one prediction", treeName, name, peels)
			}
			settled := true // the bound answers every degeneracy test of the tree
			for _, thr := range thresholds {
				settled = settled && float64(kcore.DegeneracyBound(g)) <= thr
			}
			if settled && peels != 0 {
				t.Fatalf("%s on %s: peeled although the bound %d is below every threshold %v",
					treeName, name, kcore.DegeneracyBound(g), thresholds)
			}
			if treeName == "published" && !settled && kcore.DegeneracyBound(g) > 25 && peels != 1 {
				t.Fatalf("published on %s: bound %d > 25 but %d peelings", name, kcore.DegeneracyBound(g), peels)
			}
			if settled && len(thresholds) > 0 {
				decided++
			}
			peeled += peels
		}
	}
	if decided == 0 || peeled == 0 {
		t.Fatalf("fixtures are one-sided: %d predictions decided by the bound, %d peelings", decided, peeled)
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
