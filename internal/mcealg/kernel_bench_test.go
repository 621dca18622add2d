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
// `mcealg.ns_per_node` of the end-to-end trace uses.
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
		n := bg.g.N()
		for _, c := range mcealg.AllCombos() {
			b.Run(fmt.Sprintf("%s/%v/%v", bg.name, c.Struct, c.Alg), func(b *testing.B) {
				r, err := mcealg.NewRunner(bg.g, c)
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
			})
		}
	}
}
