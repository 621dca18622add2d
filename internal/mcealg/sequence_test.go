package mcealg_test

import (
	"fmt"
	"testing"

	"mce/internal/bitset"
	"mce/internal/cliqstore"
	"mce/internal/decomp"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// seqGolden is one pinned run: the order-sensitive digest of the emitted
// clique sequence, its length, and the recursion's two work counters.
type seqGolden struct {
	digest        uint32
	cliques       int
	nodes, pivots int64
}

var seqAlgs = []mcealg.Algorithm{mcealg.BKPivot, mcealg.Tomita, mcealg.Eppstein, mcealg.XPivot}

// seqModes are the executions that must all reproduce one golden per
// (graph, algorithm): the three structures, and the work-stealing mode at
// two widths.
var seqModes = []struct {
	name string
	s    mcealg.Structure
	par  mcealg.Par
}{
	{"Matrix", mcealg.Matrix, mcealg.Par{}},
	{"Lists", mcealg.Lists, mcealg.Par{}},
	{"BitSets", mcealg.BitSets, mcealg.Par{}},
	{"BitSetsParallel/2", mcealg.BitSetsParallel, mcealg.Par{Workers: 2}},
	{"BitSetsParallel/4", mcealg.BitSetsParallel, mcealg.Par{Workers: 4}},
}

// seqGraphs are the fixed inputs: a dense block-sized G(n, p), a
// Holme–Kim graph of block size, planted cliques over a sparse background,
// the Theorem 1 chain H_n, and two G(n, p) whose windows are 4 and 5 words
// wide.
var seqGraphs = []struct {
	name  string
	build func() *graph.Graph
}{
	{"gnp130", func() *graph.Graph { return gen.ErdosRenyi(130, 0.5, 7) }},
	{"hk56", func() *graph.Graph { return gen.HolmeKim(56, 6, 0.7, 5) }},
	{"planted", func() *graph.Graph {
		return gen.PlantCliques(gen.ErdosRenyi(120, 0.08, 11), 6, 6, 14, 11)
	}},
	{"chain", func() *graph.Graph { return gen.HardChain(90, 8, 0) }},
	{"gnp240", func() *graph.Graph { return gen.ErdosRenyi(240, 0.3, 13) }},
	{"gnp300", func() *graph.Graph { return gen.ErdosRenyi(300, 0.2, 19) }},
}

// Golden values recorded from the commit before the word-window kernel
// (bool matrix, per-row bitset.Set, free-list recursion), indexed like
// seqAlgs. The recursion tree is a pure function of (algorithm, graph, R,
// P, X), so no structure, width or rewrite of the kernel may move them.
var seqWholeGraph = map[string][4]seqGolden{
	"gnp130": {
		{0xe508bb00, 49857, 265486, 138885},
		{0x6c9eb943, 49857, 123267, 68000},
		{0x1fedfe4d, 49857, 124415, 69430},
		{0x7a44a525, 49857, 142716, 85734},
	},
	"hk56": {
		{0xed61de9f, 188, 527, 249},
		{0x7d3aa731, 188, 403, 193},
		{0x69b8ec8d, 188, 433, 233},
		{0x48489a3b, 188, 414, 205},
	},
	"planted": {
		{0x2f4bf0ec, 393, 1053, 482},
		{0x43371cd2, 393, 787, 328},
		{0x92e6083f, 393, 808, 357},
		{0x064ec1e8, 393, 826, 353},
	},
	"chain": {
		{0x8fd719e0, 123, 2714, 1714},
		{0x8fd719e0, 123, 688, 556},
		{0x46b44aa8, 123, 755, 621},
		{0x825ffcde, 123, 746, 611},
	},
	// The 4- and 5-word windows, pinned from the commit before the kernel
	// went generic over its window type: the last fixed-width shape and
	// the first graph on the slice body.
	"gnp240": {
		{0xbcd8ef4e, 38278, 138933, 60754},
		{0xa4447f3e, 38278, 89224, 43313},
		{0xeca2381b, 38278, 89414, 43966},
		{0x2352499c, 38278, 97418, 49716},
	},
	"gnp300": {
		{0x7fbeabb1, 18562, 54675, 21216},
		{0x79f31ffa, 18562, 40782, 17261},
		{0x9c04051d, 18562, 40617, 17426},
		{0x21398c33, 18562, 43641, 19352},
	},
}

// seqBlockPlan pins decomp.AnalyzeBlock over every block of one plan (so
// kernels run with non-empty X, the visited mechanism of Algorithm 4).
var seqBlockPlan = [4]seqGolden{
	{0xb65ba61a, 5623, 14289, 5318},
	{0x94198b05, 5623, 12195, 4907},
	{0x9ac36955, 5623, 15636, 5806},
	{0xefc2c164, 5623, 13087, 5293},
}

func (g seqGolden) String() string {
	return fmt.Sprintf("{%#08x, %d, %d, %d}", g.digest, g.cliques, g.nodes, g.pivots)
}

// TestKernelSequenceUnchanged is the order-sensitive oracle of the kernel:
// every structure and work-stealing width must reproduce, per algorithm,
// the emitted sequence and the two work counters the pre-rewrite recursion
// produced — on whole graphs, and through decomp's Algorithm 4.
func TestKernelSequenceUnchanged(t *testing.T) {
	t.Run("graphs", sequenceOnGraphs)
	t.Run("blockplan", sequenceOnBlockPlan)
}

func sequenceOnGraphs(t *testing.T) {
	for _, tg := range seqGraphs {
		g := tg.build()
		n := g.N()
		for ai, alg := range seqAlgs {
			want := seqWholeGraph[tg.name][ai]
			for _, mode := range seqModes {
				r, err := mcealg.NewRunnerPar(g, mcealg.Combo{Alg: alg, Struct: mode.s}, mode.par)
				if err != nil {
					t.Fatal(err)
				}
				P := bitset.New(n)
				for v := int32(0); v < int32(n); v++ {
					P.Add(v)
				}
				var d cliqstore.Digester
				got := seqGolden{}
				r.Subproblem(nil, P, bitset.New(n), func(c []int32) {
					d.Add(c)
					got.cliques++
				})
				got.digest = d.Sum32()
				got.nodes, got.pivots = r.Counts()
				if got != want {
					t.Errorf("%s %v %s: got %v, pinned %v", tg.name, alg, mode.name, got, want)
				}
			}
		}
	}
}

func sequenceOnBlockPlan(t *testing.T) {
	g := gen.HolmeKim(1500, 6, 0.7, 9)
	const m = 40
	feasible, _ := decomp.Cut(g, m)
	blocks := decomp.Blocks(g, feasible, m, decomp.Options{})
	visited := 0
	for i := range blocks {
		visited += len(blocks[i].Visited)
	}
	if visited == 0 {
		t.Fatal("plan has no visited nodes: the X side of Algorithm 4 is not exercised")
	}
	for ai, alg := range seqAlgs {
		want := seqBlockPlan[ai]
		for _, mode := range seqModes {
			var d cliqstore.Digester
			var an decomp.Analyzer
			got := seqGolden{}
			for i := range blocks {
				err := an.Analyze(&blocks[i], mcealg.Combo{Alg: alg, Struct: mode.s}, func(c []int32) {
					d.Add(c)
					got.cliques++
				}, mode.par)
				if err != nil {
					t.Fatal(err)
				}
				nodes, pivots := an.Counts()
				got.nodes += nodes
				got.pivots += pivots
			}
			got.digest = d.Sum32()
			if got != want {
				t.Errorf("block plan %v %s: got %v, pinned %v", alg, mode.name, got, want)
			}
		}
	}
}
