// Command mcebench regenerates the paper's evaluation: every table and
// figure of Conte et al., "Finding All Maximal Cliques in Very Large Social
// Networks" (EDBT 2016), over the synthetic corpus and the dataset
// surrogates.
//
// Usage:
//
//	mcebench -exp all            # run everything
//	mcebench -exp t1,f7,f11      # run a subset
//	mcebench -list               # show the experiment index
//
// Experiment IDs follow DESIGN.md §4: t1 t2 t3 f3 f4 f6 f7 f8 f9 f10 f11
// x1 x2 x3 x4.
//
// The -smoke mode is the CI benchmark gate: a deterministic Holme–Kim
// workload timed best-of-N, normalized by a calibration run, written as a
// JSON report (-out) and compared against a checked-in baseline
// (-baseline, -regress). See smoke.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mce/internal/cluster"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/diskgraph"
	"mce/internal/dtree"
	"mce/internal/experiments"
	"mce/internal/extmce"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

type experiment struct {
	id, what string
	run      func() error
}

// out is the sink the experiment tables are written to; main wires it to
// stdout, tests capture it.
var out io.Writer = os.Stdout

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	out = stdout
	fs := flag.NewFlagSet("mcebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	smoke := fs.Bool("smoke", false, "run the CI benchmark smoke workload instead of the experiments")
	smokeOut := fs.String("out", "", "with -smoke: write the report JSON to this file")
	baseline := fs.String("baseline", "", "with -smoke: gate against this baseline report JSON")
	regress := fs.Float64("regress", 0.30, "with -smoke: max allowed normalized-time regression fraction")
	smokeRuns := fs.Int("smoke-runs", 3, "with -smoke: best-of-N timed runs")
	parFloor := fs.Float64("par-floor", 1.25, "with -smoke: min dense-block speedup of the intra-block pool (enforced only on 4+ CPU machines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		return runSmoke(stdout, stderr, *smokeOut, *baseline, *regress, *smokeRuns, *parFloor)
	}

	exps := index()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(out, "%-4s %s\n", e.id, e.what)
		}
		return 0
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	for id := range want {
		if id != "all" && !known[id] {
			fmt.Fprintf(stderr, "mcebench: unknown experiment %q (use -list)\n", id)
			return 2
		}
	}

	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		fmt.Fprintf(out, "=== %s: %s\n", e.id, e.what)
		t0 := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(stderr, "mcebench: %s: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintf(out, "--- %s done in %v\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

// measured caches the corpus measurement shared by t1, t2, f3 and f4.
var measured []experiments.CorpusMeasurement

func measure() ([]experiments.CorpusMeasurement, error) {
	if measured != nil {
		return measured, nil
	}
	ms, err := experiments.MeasureCorpus(gen.Corpus(1))
	if err != nil {
		return nil, err
	}
	measured = ms
	return ms, nil
}

// sweeps caches the per-dataset ratio sweeps shared by f7–f11.
var sweeps map[string][]experiments.RatioResult

func sweepAll() (map[string][]experiments.RatioResult, error) {
	if sweeps != nil {
		return sweeps, nil
	}
	out := map[string][]experiments.RatioResult{}
	for _, spec := range gen.Datasets() {
		rs, err := experiments.RunRatioSweep(spec.Build(), experiments.PaperRatios())
		if err != nil {
			return nil, err
		}
		out[spec.Name] = rs
	}
	sweeps = out
	return out, nil
}

func sweepNames(m map[string][]experiments.RatioResult) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func index() []experiment {
	return []experiment{
		{"t1", "Table 1: #wins of each algorithm/structure combo on the 50-graph corpus", func() error {
			ms, err := measure()
			if err != nil {
				return err
			}
			rows := experiments.Table1(ms)
			fmt.Fprintf(out, "%-12s %8s %8s %8s\n", "Algorithm", "Matrix", "Lists", "BitSets")
			for _, alg := range []mcealg.Algorithm{mcealg.BKPivot, mcealg.Tomita, mcealg.Eppstein, mcealg.XPivot} {
				wins := map[mcealg.Structure]int{}
				for _, r := range rows {
					if r.Combo.Alg == alg {
						wins[r.Combo.Struct] = r.Wins
					}
				}
				fmt.Fprintf(out, "%-12s %8d %8d %8d\n", alg, wins[mcealg.Matrix], wins[mcealg.Lists], wins[mcealg.BitSets])
			}
			return nil
		}},
		{"t2", "Table 2: parameter ranges of the corpus", func() error {
			ms, err := measure()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-12s %14s %14s\n", "Metric", "Min", "Max")
			for _, r := range experiments.Table2(ms) {
				fmt.Fprintf(out, "%-12s %14.5g %14.5g\n", r.Metric, r.Min, r.Max)
			}
			return nil
		}},
		{"t3", "Table 3: dataset surrogate statistics (paper values in parentheses)", func() error {
			rows, _ := experiments.Table3()
			fmt.Fprintf(out, "%-10s %22s %24s %22s\n", "Network", "#nodes", "#edges", "max degree")
			for _, r := range rows {
				fmt.Fprintf(out, "%-10s %10d (%9d) %12d (%9d) %10d (%7d)\n",
					r.Name, r.Nodes, r.PaperNodes, r.Edges, r.PaperEdges, r.MaxDegree, r.PaperMaxDegree)
			}
			return nil
		}},
		{"f3", "Figure 3: the trained decision tree", func() error {
			ms, err := measure()
			if err != nil {
				return err
			}
			eval := experiments.Figures3And4(ms)
			fmt.Fprintf(out, "trained on %d graphs, tested on %d, test accuracy %.0f%%\n%s",
				eval.TrainGraphs, eval.TestGraphs, 100*eval.TestAccuracy, eval.Tree)
			fmt.Fprintf(out, "feature importance: ")
			imp := eval.Tree.FeatureImportance()
			feats := make([]dtree.Feature, 0, len(imp))
			for f := range imp {
				feats = append(feats, f)
			}
			sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
			for _, f := range feats {
				fmt.Fprintf(out, "%v=%.2f ", f, imp[f])
			}
			fmt.Fprintln(out)
			return nil
		}},
		{"f4", "Figure 4: test-set time, decision tree vs the 5 best fixed combos", func() error {
			ms, err := measure()
			if err != nil {
				return err
			}
			eval := experiments.Figures3And4(ms)
			fmt.Fprintf(out, "%-20s %12v\n", "Decision Tree", eval.TreeTime)
			for _, ft := range eval.FixedTimes[:5] {
				fmt.Fprintf(out, "%-20s %12v\n", ft.Combo, ft.Total)
			}
			return nil
		}},
		{"f6", "Figure 6: truncated degree distributions of the surrogates", func() error {
			_, graphs := experiments.Table3()
			for _, r := range experiments.Figure6(graphs) {
				fmt.Fprintf(out, "%-10s low-degree share %.0f%%  alpha=%.2f (tail %d)  counts=%v\n",
					r.Name, 100*r.LowDegreeShare, r.Alpha, r.TailNodes, r.Counts)
			}
			return nil
		}},
		{"f7", "Figure 7: decomposition time vs m/d (iterations in parentheses)", func() error {
			sw, err := sweepAll()
			if err != nil {
				return err
			}
			for _, name := range sweepNames(sw) {
				fmt.Fprintf(out, "%-10s", name)
				for _, rr := range sw[name] {
					fmt.Fprintf(out, " %.1f:%v(it=%d,B=%d)", rr.Ratio, rr.Decomp.Round(time.Millisecond), rr.Iterations, rr.Blocks)
				}
				fmt.Fprintln(out)
			}
			return nil
		}},
		{"f8", "Figure 8: clique computation time vs m/d", func() error {
			sw, err := sweepAll()
			if err != nil {
				return err
			}
			for _, name := range sweepNames(sw) {
				fmt.Fprintf(out, "%-10s", name)
				for _, rr := range sw[name] {
					fmt.Fprintf(out, " %.1f:%v", rr.Ratio, (rr.Analysis + rr.Filter).Round(time.Millisecond))
				}
				fmt.Fprintln(out)
			}
			return nil
		}},
		{"f9", "Figure 9: clique counts/sizes on the twitter surrogates, feasible vs hub-only", func() error {
			return printSplit([]string{"twitter1", "twitter2", "twitter3"})
		}},
		{"f10", "Figure 10: clique counts/sizes on facebook/google+, feasible vs hub-only", func() error {
			return printSplit([]string{"facebook", "google+"})
		}},
		{"f11", "Figure 11: hub-only share of the 200 largest cliques", func() error {
			sw, err := sweepAll()
			if err != nil {
				return err
			}
			for _, name := range sweepNames(sw) {
				fmt.Fprintf(out, "%-10s", name)
				for _, rr := range sw[name] {
					fmt.Fprintf(out, " %.1f:%.0f%%", rr.Ratio, 100*rr.Top200HubShare)
				}
				fmt.Fprintln(out)
			}
			return nil
		}},
		{"x1", "X1: hub-neglecting baseline — missed and spurious cliques", func() error {
			spec, err := gen.Dataset("twitter1")
			if err != nil {
				return err
			}
			g := spec.Build()
			results, err := experiments.HubNeglectBaseline(g, []float64{0.9, 0.5, 0.3, 0.1})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-8s %6s %10s %10s %10s %10s %14s\n", "m/d", "m", "truth", "found", "missed", "spurious", "maxMissedSize")
			for _, r := range results {
				fmt.Fprintf(out, "%-8.1f %6d %10d %10d %10d %10d %14d\n",
					r.Ratio, r.M, r.Truth, r.Found, r.Missed, r.Spurious, r.MaxMissedSize)
			}
			return nil
		}},
		{"x3", "X3: communication overhead — local vs latency-laden cluster as m shrinks", func() error {
			spec, err := gen.Dataset("twitter1")
			if err != nil {
				return err
			}
			g := spec.Build()
			addrs, stop, err := cluster.StartLocal(4)
			if err != nil {
				return err
			}
			defer stop()
			client, err := cluster.Dial(addrs, cluster.ClientOptions{Latency: 500 * time.Microsecond})
			if err != nil {
				return err
			}
			defer client.Close()
			points, err := experiments.CommunicationOverhead(g, experiments.PaperRatios(), client)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-8s %8s %12s %14s %10s\n", "m/d", "blocks", "local", "distributed", "overhead")
			for _, p := range points {
				fmt.Fprintf(out, "%-8.1f %8d %12v %14v %9.1fx\n",
					p.Ratio, p.Blocks, p.Local.Round(time.Millisecond),
					p.Distributed.Round(time.Millisecond),
					float64(p.Distributed)/float64(p.Local))
			}
			return nil
		}},
		{"a1", "A1: block seeding ablation — greedy-dense vs random (the §7 partitioning claim)", func() error {
			spec, err := gen.Dataset("twitter1")
			if err != nil {
				return err
			}
			g := spec.Build()
			m := g.MaxDegree() / 2
			feasible, _ := decomp.Cut(g, m)
			fmt.Fprintf(out, "%-12s %8s %14s %14s %12s\n", "order", "blocks", "avg density", "decomp", "analysis")
			for _, o := range []struct {
				name  string
				order decomp.Order
			}{{"degree-asc", decomp.OrderDegreeAsc}, {"node-id", decomp.OrderID}, {"random", decomp.OrderRandom}} {
				t0 := time.Now()
				blocks := decomp.Blocks(g, feasible, m, decomp.Options{Order: o.order, Seed: 1})
				decompTime := time.Since(t0)
				density, counted := 0.0, 0
				for i := range blocks {
					if blocks[i].Graph.N() >= 2 {
						density += blocks[i].Graph.Density()
						counted++
					}
				}
				t0 = time.Now()
				res, err := core.FindMaxCliques(g, core.Options{BlockSize: m, Block: decomp.Options{Order: o.order, Seed: 1}})
				if err != nil {
					return err
				}
				_ = res
				analysis := time.Since(t0)
				fmt.Fprintf(out, "%-12s %8d %14.4f %14v %12v\n",
					o.name, len(blocks), density/float64(counted),
					decompTime.Round(time.Millisecond), analysis.Round(time.Millisecond))
			}
			return nil
		}},
		{"x5", "X5: out-of-core — disk-resident enumeration vs in-memory", func() error {
			g := gen.HolmeKim(8000, 6, 0.7, 68)
			dir, err := os.MkdirTemp("", "mcebench-ooc")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			path := dir + "/g.mceg"
			if err := diskgraph.Write(path, g); err != nil {
				return err
			}
			t0 := time.Now()
			res, err := core.FindMaxCliques(g, core.Options{BlockRatio: 0.3})
			if err != nil {
				return err
			}
			inMem := time.Since(t0)
			for _, prefetch := range []int{0, 4} {
				dg, err := diskgraph.Open(path)
				if err != nil {
					return err
				}
				t0 = time.Now()
				n := 0
				stats, err := extmce.Enumerate(context.Background(), dg, extmce.Options{BlockRatio: 0.3, Prefetch: prefetch},
					func([]int32, int) { n++ })
				elapsed := time.Since(t0)
				dg.Close()
				if err != nil {
					return err
				}
				if n != res.Stats.TotalCliques {
					return fmt.Errorf("out-of-core found %d cliques, in-memory %d", n, res.Stats.TotalCliques)
				}
				fmt.Fprintf(out, "out-of-core prefetch=%d: %v (%d blocks, %d disk reads)\n",
					prefetch, elapsed.Round(time.Millisecond), stats.Blocks, stats.DiskReads)
			}
			fmt.Fprintf(out, "in-memory              : %v (%d cliques either way)\n",
				inMem.Round(time.Millisecond), res.Stats.TotalCliques)
			return nil
		}},
		{"x4", "X4: scalability — end-to-end runtime vs graph size and parallelism", func() error {
			fmt.Fprintf(out, "%-8s %10s %10s %12s %12s %12s\n", "n", "edges", "cliques", "p=1", "p=2", "p=4")
			for _, n := range []int{2000, 4000, 8000, 16000} {
				g := gen.HolmeKim(n, 6, 0.7, int64(n))
				var times [3]time.Duration
				cliques := 0
				for i, p := range []int{1, 2, 4} {
					t0 := time.Now()
					res, err := core.FindMaxCliques(g, core.Options{Parallelism: p})
					if err != nil {
						return err
					}
					times[i] = time.Since(t0)
					cliques = res.Stats.TotalCliques
				}
				fmt.Fprintf(out, "%-8d %10d %10d %12v %12v %12v\n", n, g.M(), cliques,
					times[0].Round(time.Millisecond), times[1].Round(time.Millisecond),
					times[2].Round(time.Millisecond))
			}
			return nil
		}},
		{"x2", "X2: Theorem 1 hard chain — Ω(n) first-level iterations", func() error {
			points, err := experiments.HardChainRounds([]int{50, 100, 200, 400}, 4)
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Fprintf(out, "n=%-5d iterations=%d\n", p.N, p.Iterations)
			}
			return nil
		}},
	}
}

func printSplit(names []string) error {
	sw, err := sweepAll()
	if err != nil {
		return err
	}
	for _, name := range names {
		rs := sw[name]
		fmt.Fprintf(out, "%-10s (max clique size %d)\n", name, rs[0].MaxCliqueSize)
		fmt.Fprintf(out, "  %-8s %12s %12s %10s %10s\n", "m/d", "#feasible", "#hub-only", "avg|feas|", "avg|hub|")
		for _, rr := range rs {
			fmt.Fprintf(out, "  %-8.1f %12d %12d %10.2f %10.2f\n",
				rr.Ratio, rr.FeasibleCliques, rr.HubCliques, rr.AvgSizeFeasible, rr.AvgSizeHub)
		}
	}
	return nil
}
