package mcealg_test

import (
	"fmt"
	"testing"

	"mce/internal/bitset"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// BenchmarkKernel times the recursion alone — adjacency built once, one
// whole-graph subproblem per op — for the paper's 4×3 grid on a dense and a
// sparse block-sized graph and on a wide sparse one (32-word windows,
// cliques of 3–7 nodes: the side of report that sorts R instead of scanning
// a window), and reports ns per recursion node, the unit
// `mcealg.ns_per_node` of the end-to-end trace uses. The width/ group runs
// the packed store on G(n, 0.5) either side of each word boundary up to the
// widest array window: n = 64 to 256 run the recursion stenciled for 1 to
// 4 words, n = 65 to 257 the next width, and 257 the slice body.
func BenchmarkKernel(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp132", gen.ErdosRenyi(132, 0.5, 42)},
		{"hk56", gen.HolmeKim(56, 6, 0.7, 5)},
		{"hk2000", gen.HolmeKim(2000, 6, 0.7, 5)},
	}
	for _, bg := range graphs {
		for _, c := range mcealg.AllCombos() {
			b.Run(fmt.Sprintf("%s/%v/%v", bg.name, c.Struct, c.Alg), func(b *testing.B) { benchWholeGraph(b, bg.g, c) })
		}
	}
	for _, n := range []int{64, 65, 128, 129, 192, 193, 256, 257} {
		g := gen.ErdosRenyi(n, 0.5, 42)
		for _, alg := range []mcealg.Algorithm{mcealg.BKPivot, mcealg.Tomita, mcealg.Eppstein, mcealg.XPivot} {
			b.Run(fmt.Sprintf("width/n=%d/%v", n, alg), func(b *testing.B) {
				benchWholeGraph(b, g, mcealg.Combo{Alg: alg, Struct: mcealg.BitSets})
			})
		}
	}
}

// benchWholeGraph times one whole-graph subproblem of g per op under c and
// reports ns per recursion node.
func benchWholeGraph(b *testing.B, g *graph.Graph, c mcealg.Combo) {
	n := g.N()
	r, err := mcealg.NewRunner(g, c)
	if err != nil {
		b.Fatal(err)
	}
	P, X := bitset.New(n), bitset.New(n)
	for v := int32(0); v < int32(n); v++ {
		P.Add(v)
	}
	cliques := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Subproblem(nil, P, X, func([]int32) { cliques++ })
	}
	b.StopTimer()
	nodes, _ := r.Counts()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
