package mce

// This file is the reproduction harness: one testing.B benchmark per table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index),
// plus the ablations called out in DESIGN.md §5. Each benchmark regenerates
// the corresponding rows/series and prints them once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. EXPERIMENTS.md records the paper-reported
// versus measured values.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mce/internal/cluster"
	"mce/internal/community"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/diskgraph"
	"mce/internal/experiments"
	"mce/internal/extmce"
	"mce/internal/filter"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/incremental"
	"mce/internal/kplex"
	"mce/internal/maxclique"
	"mce/internal/mcealg"
)

// printOnce gates table printing so repeated b.N iterations stay quiet.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

// --- Table 1 -------------------------------------------------------------

func BenchmarkTable1ComboWins(b *testing.B) {
	corpus := gen.Corpus(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureCorpus(corpus)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table1(ms)
		once("t1", func() {
			b.StopTimer()
			fmt.Printf("\n[Table 1] #times each combo was fastest over %d graphs\n", len(ms))
			fmt.Printf("%-12s %8s %8s %8s\n", "Algorithm", "Matrix", "Lists", "BitSets")
			for _, alg := range []mcealg.Algorithm{mcealg.BKPivot, mcealg.Tomita, mcealg.Eppstein, mcealg.XPivot} {
				wins := map[mcealg.Structure]int{}
				for _, r := range rows {
					if r.Combo.Alg == alg {
						wins[r.Combo.Struct] = r.Wins
					}
				}
				fmt.Printf("%-12s %8d %8d %8d\n", alg,
					wins[mcealg.Matrix], wins[mcealg.Lists], wins[mcealg.BitSets])
			}
			b.StartTimer()
		})
	}
}

// --- Table 2 -------------------------------------------------------------

func BenchmarkTable2ParameterRanges(b *testing.B) {
	corpus := gen.Corpus(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureCorpus(corpus)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table2(ms)
		once("t2", func() {
			b.StopTimer()
			fmt.Printf("\n[Table 2] parameter ranges of the %d-graph corpus\n", len(ms))
			fmt.Printf("%-12s %14s %14s\n", "Metric", "Min", "Max")
			for _, r := range rows {
				fmt.Printf("%-12s %14.5g %14.5g\n", r.Metric, r.Min, r.Max)
			}
			b.StartTimer()
		})
	}
}

// --- Table 3 -------------------------------------------------------------

func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table3()
		once("t3", func() {
			b.StopTimer()
			fmt.Printf("\n[Table 3] dataset surrogates (paper original in parentheses)\n")
			fmt.Printf("%-10s %22s %24s %22s\n", "Network", "#nodes", "#edges", "max degree")
			for _, r := range rows {
				fmt.Printf("%-10s %10d (%9d) %12d (%9d) %10d (%7d)\n",
					r.Name, r.Nodes, r.PaperNodes, r.Edges, r.PaperEdges,
					r.MaxDegree, r.PaperMaxDegree)
			}
			b.StartTimer()
		})
	}
}

// --- Figures 3 and 4 -----------------------------------------------------

func BenchmarkFigure3DecisionTree(b *testing.B) {
	corpus := gen.Corpus(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureCorpus(corpus)
		if err != nil {
			b.Fatal(err)
		}
		eval := experiments.Figures3And4(ms)
		once("f3", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 3] decision tree trained on %d graphs (tested on %d, accuracy %.0f%%):\n%s",
				eval.TrainGraphs, eval.TestGraphs, 100*eval.TestAccuracy, eval.Tree)
			b.StartTimer()
		})
	}
}

func BenchmarkFigure4TreeVsFixed(b *testing.B) {
	corpus := gen.Corpus(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureCorpus(corpus)
		if err != nil {
			b.Fatal(err)
		}
		eval := experiments.Figures3And4(ms)
		once("f4", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 4] total time on the test set (decision tree vs 5 best fixed combos)\n")
			fmt.Printf("%-20s %12v\n", "Decision Tree", eval.TreeTime)
			for _, ft := range eval.FixedTimes[:5] {
				fmt.Printf("%-20s %12v\n", ft.Combo, ft.Total)
			}
			b.StartTimer()
		})
	}
}

// --- Figure 6 ------------------------------------------------------------

func BenchmarkFigure6DegreeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, graphs := experiments.Table3()
		rows := experiments.Figure6(graphs)
		once("f6", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 6] truncated degree distribution (#nodes per degree 0..20, last bin = >20)\n")
			for _, r := range rows {
				fmt.Printf("%-10s low-degree share %.0f%%  alpha=%.2f  counts=%v\n",
					r.Name, 100*r.LowDegreeShare, r.Alpha, r.Counts)
			}
			b.StartTimer()
		})
	}
}

// --- Figures 7 and 8 -----------------------------------------------------

func sweepDatasets(b *testing.B, names []string) map[string][]experiments.RatioResult {
	b.Helper()
	out := map[string][]experiments.RatioResult{}
	for _, name := range names {
		spec, err := gen.Dataset(name)
		if err != nil {
			b.Fatal(err)
		}
		results, err := experiments.RunRatioSweep(spec.Build(), experiments.PaperRatios())
		if err != nil {
			b.Fatal(err)
		}
		out[name] = results
	}
	return out
}

func allDatasetNames() []string {
	var names []string
	for _, s := range gen.Datasets() {
		names = append(names, s.Name)
	}
	return names
}

func BenchmarkFigure7DecompositionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := sweepDatasets(b, allDatasetNames())
		once("f7", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 7] decomposition time vs m/d (plus first-level iterations)\n")
			fmt.Printf("%-10s", "dataset")
			for _, r := range experiments.PaperRatios() {
				fmt.Printf(" %14s", fmt.Sprintf("m/d=%.1f", r))
			}
			fmt.Println()
			for _, name := range sortedKeys(sweeps) {
				fmt.Printf("%-10s", name)
				for _, rr := range sweeps[name] {
					fmt.Printf(" %10v(%d)", rr.Decomp.Round(time.Microsecond), rr.Iterations)
				}
				fmt.Println()
			}
			b.StartTimer()
		})
	}
}

func BenchmarkFigure8CliqueTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := sweepDatasets(b, allDatasetNames())
		once("f8", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 8] clique computation time vs m/d (serial block analysis)\n")
			fmt.Printf("%-10s", "dataset")
			for _, r := range experiments.PaperRatios() {
				fmt.Printf(" %12s", fmt.Sprintf("m/d=%.1f", r))
			}
			fmt.Println()
			for _, name := range sortedKeys(sweeps) {
				fmt.Printf("%-10s", name)
				for _, rr := range sweeps[name] {
					fmt.Printf(" %12v", (rr.Analysis + rr.Filter).Round(time.Microsecond))
				}
				fmt.Println()
			}
			b.StartTimer()
		})
	}
}

// --- Figures 9 and 10 ----------------------------------------------------

func printCliqueSplit(header string, sweeps map[string][]experiments.RatioResult) {
	fmt.Printf("\n%s\n", header)
	for _, name := range sortedKeys(sweeps) {
		fmt.Printf("%-10s (max clique size %d)\n", name, sweeps[name][0].MaxCliqueSize)
		fmt.Printf("  %-8s %12s %12s %10s %10s\n", "m/d", "#feasible", "#hub-only", "avg|feas|", "avg|hub|")
		for _, rr := range sweeps[name] {
			fmt.Printf("  %-8.1f %12d %12d %10.2f %10.2f\n",
				rr.Ratio, rr.FeasibleCliques, rr.HubCliques, rr.AvgSizeFeasible, rr.AvgSizeHub)
		}
	}
}

func BenchmarkFigure9TwitterCliques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := sweepDatasets(b, []string{"twitter1", "twitter2", "twitter3"})
		once("f9", func() {
			b.StopTimer()
			printCliqueSplit("[Figure 9] clique counts and sizes, feasible (white) vs hub-only (gray)", sweeps)
			b.StartTimer()
		})
	}
}

func BenchmarkFigure10FacebookGoogleCliques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := sweepDatasets(b, []string{"facebook", "google+"})
		once("f10", func() {
			b.StopTimer()
			printCliqueSplit("[Figure 10] clique counts and sizes, feasible (white) vs hub-only (gray)", sweeps)
			b.StartTimer()
		})
	}
}

// --- Figure 11 -----------------------------------------------------------

func BenchmarkFigure11Top200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := sweepDatasets(b, allDatasetNames())
		once("f11", func() {
			b.StopTimer()
			fmt.Printf("\n[Figure 11] hub-only share of the 200 largest maximal cliques\n")
			fmt.Printf("%-10s", "dataset")
			for _, r := range experiments.PaperRatios() {
				fmt.Printf(" %9s", fmt.Sprintf("m/d=%.1f", r))
			}
			fmt.Println()
			for _, name := range sortedKeys(sweeps) {
				fmt.Printf("%-10s", name)
				for _, rr := range sweeps[name] {
					fmt.Printf(" %8.0f%%", 100*rr.Top200HubShare)
				}
				fmt.Println()
			}
			b.StartTimer()
		})
	}
}

// --- X1: hub-neglecting baseline ------------------------------------------

func BenchmarkHubNeglectBaseline(b *testing.B) {
	spec, err := gen.Dataset("twitter1")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build()
	ratios := []float64{0.9, 0.5, 0.3, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.HubNeglectBaseline(g, ratios)
		if err != nil {
			b.Fatal(err)
		}
		once("x1", func() {
			b.StopTimer()
			fmt.Printf("\n[X1] hub-neglecting (EmMCE-style) baseline on the twitter1 surrogate (%d nodes)\n", g.N())
			fmt.Printf("%-8s %6s %10s %10s %10s %10s %14s\n",
				"m/d", "m", "truth", "found", "missed", "spurious", "maxMissedSize")
			for _, r := range results {
				fmt.Printf("%-8.1f %6d %10d %10d %10d %10d %14d\n",
					r.Ratio, r.M, r.Truth, r.Found, r.Missed, r.Spurious, r.MaxMissedSize)
			}
			b.StartTimer()
		})
	}
}

// --- X3: communication overhead ---------------------------------------------

func BenchmarkCommunicationOverhead(b *testing.B) {
	spec, err := gen.Dataset("twitter1")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build()
	addrs, stop, err := StartLocalWorkers(4)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	client, err := cluster.Dial(addrs, cluster.ClientOptions{Latency: 500 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.CommunicationOverhead(g, experiments.PaperRatios(), client)
		if err != nil {
			b.Fatal(err)
		}
		once("x3", func() {
			b.StopTimer()
			fmt.Printf("\n[X3] communication overhead: local vs 4 TCP workers with 0.5ms link latency\n")
			fmt.Printf("%-8s %8s %12s %14s\n", "m/d", "blocks", "local", "distributed")
			for _, p := range points {
				fmt.Printf("%-8.1f %8d %12v %14v\n", p.Ratio, p.Blocks,
					p.Local.Round(time.Millisecond), p.Distributed.Round(time.Millisecond))
			}
			b.StartTimer()
		})
	}
}

// --- X2: Theorem 1 hard chain ----------------------------------------------

func BenchmarkTheorem1HardChain(b *testing.B) {
	ns := []int{50, 100, 200, 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.HardChainRounds(ns, 4)
		if err != nil {
			b.Fatal(err)
		}
		once("x2", func() {
			b.StopTimer()
			fmt.Printf("\n[X2] Theorem 1(2): first-level iterations on the H_n chain (m=4)\n")
			for _, p := range points {
				fmt.Printf("n=%-5d iterations=%d\n", p.N, p.Iterations)
			}
			b.StartTimer()
		})
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

func BenchmarkAblationBlockGrowth(b *testing.B) {
	g := gen.HolmeKim(4000, 6, 0.7, 55)
	m := g.MaxDegree() / 2
	feasible, _ := decomp.Cut(g, m)
	for _, minAdj := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("minadj-%d", minAdj), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blocks := decomp.Blocks(g, feasible, m, decomp.Options{MinAdjacency: minAdj})
				if len(blocks) == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
}

func BenchmarkAblationFilter(b *testing.B) {
	// Hub-heavy graph: compare the paper-faithful containment filter with
	// the extension-based fast path in the Lemma 1 setting.
	g := gen.BarabasiAlbert(3000, 6, 66)
	m := g.MaxDegree() / 4
	feasSet := make([]bool, g.N())
	var hubs []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) < m {
			feasSet[v] = true
		} else {
			hubs = append(hubs, v)
		}
	}
	var cf [][]int32
	res, err := core.FindMaxCliques(g, core.Options{BlockSize: m})
	if err != nil {
		b.Fatal(err)
	}
	for i, c := range res.Cliques {
		if res.Level[i] == 0 {
			cf = append(cf, c)
		}
	}
	sub, orig := graph.Induced(g, hubs)
	var ch [][]int32
	mcealg.ReferenceEnumerate(sub, func(c []int32) {
		t := make([]int32, len(c))
		for i, v := range c {
			t[i] = orig[v]
		}
		ch = append(ch, t)
	})
	b.Run("containment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = filter.Filter(ch, cf)
		}
	})
	b.Run("extension", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = filter.ByExtension(g, ch, func(v int32) bool { return feasSet[v] })
		}
	})
}

func BenchmarkAblationDecisionTreeVsFixed(b *testing.B) {
	// End-to-end: the engine with the decision tree vs pinned combos on a
	// social surrogate (complements Figure 4's per-block measurement).
	g := gen.HolmeKim(5000, 6, 0.7, 88)
	b.Run("decision-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FindMaxCliques(g, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, combo := range []mcealg.Combo{
		{Alg: mcealg.Tomita, Struct: mcealg.BitSets},
		{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
	} {
		combo := combo
		b.Run(combo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindMaxCliques(g, core.Options{FixedCombo: &combo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Scalability -----------------------------------------------------------

func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000, 16000} {
		g := gen.HolmeKim(n, 6, 0.7, int64(n))
		b.Run(fmt.Sprintf("n-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindMaxCliques(g, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistributedWorkers(b *testing.B) {
	g := gen.HolmeKim(4000, 6, 0.7, 77)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			addrs, stop, err := StartLocalWorkers(workers)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Enumerate(g, WithWorkers(addrs...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sortedKeys(m map[string][]experiments.RatioResult) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- Extension benches (future-work features, DESIGN.md §5) ----------------

func BenchmarkExtensionCommunities(b *testing.B) {
	g := gen.HolmeKim(4000, 6, 0.7, 61)
	res, err := core.FindMaxCliques(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := community.Detect(res.Cliques, 4)
		if err != nil {
			b.Fatal(err)
		}
		once("ext-comm", func() {
			b.StopTimer()
			fmt.Printf("\n[EXT] k-clique percolation (k=4) on a %d-node surrogate: %d communities, largest %d nodes\n",
				g.N(), len(cs), len(cs[0].Nodes))
			b.StartTimer()
		})
	}
}

func BenchmarkExtensionKPlex(b *testing.B) {
	g := gen.HolmeKim(200, 4, 0.6, 62)
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kplex.Collect(g, kplex.Options{K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtensionMaxClique(b *testing.B) {
	g := gen.HolmeKim(5000, 6, 0.7, 63)
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = maxclique.Find(g)
		}
	})
	b.Run("via-enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			max := 0
			err := mcealg.Enumerate(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
				func(c []int32) {
					if len(c) > max {
						max = len(c)
					}
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExtensionIncremental(b *testing.B) {
	g := gen.HolmeKim(4000, 6, 0.7, 64)
	tr, err := incremental.New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("toggle-one-edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := tr.RemoveEdge(100, 101); err != nil {
				b.Fatal(err)
			}
			if _, _, err := tr.AddEdge(100, 101); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FindMaxCliques(g, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExtensionOutOfCore(b *testing.B) {
	g := gen.HolmeKim(8000, 6, 0.7, 68)
	dir := b.TempDir()
	path := dir + "/g.mceg"
	if err := diskgraph.Write(path, g); err != nil {
		b.Fatal(err)
	}
	b.Run("out-of-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dg, err := diskgraph.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			stats, err := extmce.Enumerate(dg, extmce.Options{BlockRatio: 0.3},
				func([]int32, int) { n++ })
			dg.Close()
			if err != nil {
				b.Fatal(err)
			}
			once("ext-ooc", func() {
				b.StopTimer()
				fmt.Printf("\n[EXT] out-of-core on %d nodes: %d cliques, %d blocks, %d disk reads\n",
					g.N(), stats.TotalCliques, stats.Blocks, stats.DiskReads)
				b.StartTimer()
			})
		}
	})
	b.Run("in-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FindMaxCliques(g, core.Options{BlockRatio: 0.3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationSeedOrder(b *testing.B) {
	g := gen.HolmeKim(5000, 6, 0.7, 67)
	for _, order := range []decomp.Order{decomp.OrderDegreeAsc, decomp.OrderRandom} {
		name := "degree-asc"
		if order == decomp.OrderRandom {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Block: decomp.Options{Order: order, Seed: 1}}
				if _, err := core.FindMaxCliques(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
