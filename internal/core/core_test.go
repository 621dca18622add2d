package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/runlog"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// assertComplete checks that res contains exactly the maximal cliques of g,
// each exactly once.
func assertComplete(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := mcealg.ReferenceCollect(g)
	got := map[string]int{}
	for _, c := range res.Cliques {
		got[key(c)]++
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("clique {%s} appears %d times", k, n)
		}
	}
	if len(res.Cliques) != len(want) {
		t.Fatalf("got %d cliques, want %d", len(res.Cliques), len(want))
	}
	for _, c := range want {
		if got[key(c)] != 1 {
			t.Fatalf("clique {%s} missing", key(c))
		}
	}
	if len(res.Level) != len(res.Cliques) {
		t.Fatalf("Level has %d entries for %d cliques", len(res.Level), len(res.Cliques))
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := FindMaxCliques(graph.Empty(0), Options{}); err != ErrNoNodes {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestSingleNode(t *testing.T) {
	res, err := FindMaxCliques(graph.Empty(1), Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 1 || key(res.Cliques[0]) != "0" {
		t.Fatalf("Cliques = %v", res.Cliques)
	}
}

func TestCompleteGraphSmallM(t *testing.T) {
	// K8 with m=3: every node has degree 7 ≥ m, so the recursion stalls
	// immediately and level 0 must be cut again with every node feasible.
	g := graph.Complete(8)
	res, err := FindMaxCliques(g, Options{BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if !res.Stats.CoreFallback {
		t.Fatalf("expected CoreFallback on the stalled recursion")
	}
}

func TestHubsProduceSecondLevel(t *testing.T) {
	// Star K1,10 with m=4: the centre is a hub, leaves are feasible.
	b := graph.NewBuilder(11)
	for v := int32(1); v < 11; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	res, err := FindMaxCliques(g, Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if len(res.Stats.Levels) < 2 {
		t.Fatalf("expected ≥ 2 levels, got %+v", res.Stats.Levels)
	}
	if res.Stats.Levels[0].Hubs != 1 {
		t.Fatalf("level 0 hubs = %d, want 1", res.Stats.Levels[0].Hubs)
	}
	// Every clique {0,v} contains a feasible leaf → all level 0.
	if res.Stats.HubCliques != 0 {
		t.Fatalf("HubCliques = %d, want 0", res.Stats.HubCliques)
	}
}

func TestHubOnlyCliqueDetected(t *testing.T) {
	// The paper's motivating scenario: a clique entirely among hubs.
	// Build a K5 "hub core" and attach many leaves to each core node so
	// their degrees blow past m, then pick m small.
	b := graph.NewBuilder(5 + 5*20)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	next := int32(5)
	for u := int32(0); u < 5; u++ {
		for i := 0; i < 20; i++ {
			b.AddEdge(u, next)
			next++
		}
	}
	g := b.Build()
	res, err := FindMaxCliques(g, Options{BlockSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	// {0,1,2,3,4} must be reported and must be attributed to a hub level.
	found := false
	for i, c := range res.Cliques {
		if key(c) == "0,1,2,3,4" {
			found = true
			if res.Level[i] < 1 {
				t.Fatalf("hub-only clique attributed to level %d", res.Level[i])
			}
		}
	}
	if !found {
		t.Fatalf("hub-only clique missing")
	}
	if res.Stats.HubCliques < 1 {
		t.Fatalf("HubCliques = %d, want ≥ 1", res.Stats.HubCliques)
	}
}

func TestFilterDropsNonMaximalHubCliques(t *testing.T) {
	// Hub pair {0,1} adjacent, plus feasible node 2 adjacent to both:
	// {0,1} is maximal in the hub graph but contained in {0,1,2}.
	b := graph.NewBuilder(3 + 8 + 8)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	next := int32(3)
	for u := int32(0); u < 2; u++ {
		for i := 0; i < 8; i++ {
			b.AddEdge(u, next)
			next++
		}
	}
	g := b.Build()
	// m=5: deg(0)=deg(1)=10 ≥ 5 → hubs; node 2 degree 2 → feasible.
	res, err := FindMaxCliques(g, Options{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	for _, c := range res.Cliques {
		if key(c) == "0,1" {
			t.Fatalf("non-maximal hub clique {0,1} survived the filter")
		}
	}
}

func TestBlockRatioDerivesM(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	wantM := int(0.3*float64(g.MaxDegree()) + 0.999)
	if res.Stats.BlockSize != wantM {
		t.Fatalf("BlockSize = %d, want %d", res.Stats.BlockSize, wantM)
	}
	assertComplete(t, g, res)
}

func TestDefaultRatioIsHalf(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 8)
	res, err := FindMaxCliques(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantM := int(0.5*float64(g.MaxDegree()) + 0.999)
	if res.Stats.BlockSize != wantM {
		t.Fatalf("BlockSize = %d, want %d", res.Stats.BlockSize, wantM)
	}
}

func TestFixedComboPath(t *testing.T) {
	g := gen.HolmeKim(200, 4, 0.6, 15)
	for _, combo := range []mcealg.Combo{
		{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
		{Alg: mcealg.XPivot, Struct: mcealg.Matrix},
	} {
		combo := combo
		res, err := FindMaxCliques(g, Options{BlockRatio: 0.4, FixedCombo: &combo})
		if err != nil {
			t.Fatal(err)
		}
		assertComplete(t, g, res)
	}
}

// TestFixedComboBoundsQuadraticStores: a fixed Matrix or BitSets combo on a
// block past the quadratic-store bound runs the same algorithm over Lists,
// also under intra-block parallelism, which upgrades BitSets picks only.
func TestFixedComboBoundsQuadraticStores(t *testing.T) {
	big := graph.Empty(mcealg.MatrixMaxNodes + 1)
	small := graph.Empty(mcealg.MatrixMaxNodes)
	var scratch kcore.Scratch
	for _, s := range []mcealg.Structure{mcealg.Matrix, mcealg.BitSets, mcealg.Lists} {
		fixed := mcealg.Combo{Alg: mcealg.Tomita, Struct: s}
		for _, intra := range []int{0, 4} {
			sel := selectionRule(Options{FixedCombo: &fixed, IntraBlockParallelism: intra}).Pick
			if got, want := sel(big, &scratch), (mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Lists}); got != want {
				t.Errorf("%v intra=%d above the bound: %v, want %v", fixed, intra, got, want)
			}
			want := fixed
			if s == mcealg.BitSets && intra > 1 {
				want.Struct = mcealg.BitSetsParallel
			}
			if got := sel(small, &scratch); got != want {
				t.Errorf("%v intra=%d at the bound: %v, want %v", fixed, intra, got, want)
			}
		}
	}
}

func TestMaxLevelsForcesFallback(t *testing.T) {
	// HardChain needs many levels; capping at 2 must fall back and stay
	// complete.
	g := gen.HardChain(40, 4, 0)
	res, err := FindMaxCliques(g, Options{BlockSize: 5, MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if !res.Stats.CoreFallback {
		t.Fatalf("expected CoreFallback with MaxLevels=2")
	}
	if len(res.Stats.Levels) > 3 {
		t.Fatalf("levels = %d despite cap", len(res.Stats.Levels))
	}
}

func TestHardChainManyLevels(t *testing.T) {
	// Without a cap, the Theorem 1 construction needs Ω(n) levels.
	n := 30
	g := gen.HardChain(n, 4, 0)
	res, err := FindMaxCliques(g, Options{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
	if len(res.Stats.Levels) < n/2 {
		t.Fatalf("levels = %d, expected Ω(n) ≈ %d", len(res.Stats.Levels), n)
	}
}

func TestDeterministicOutput(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 19)
	a, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindMaxCliques(g, Options{BlockRatio: 0.4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cliques) != len(b.Cliques) {
		t.Fatalf("parallelism changed clique count: %d vs %d", len(a.Cliques), len(b.Cliques))
	}
	for i := range a.Cliques {
		if key(a.Cliques[i]) != key(b.Cliques[i]) || a.Level[i] != b.Level[i] {
			t.Fatalf("output order differs at %d", i)
		}
	}
}

func TestStatsLevelIterationCounts(t *testing.T) {
	// The paper reports 2 first-level iterations for m/d ∈ {0.5, 0.9} and
	// 3 for {0.1, 0.3} on its datasets. Our surrogates should stay in the
	// same few-iterations regime (Theorem 1's pathology excepted).
	g := gen.HolmeKim(2000, 6, 0.7, 23)
	for _, ratio := range []float64{0.9, 0.5, 0.1} {
		res, err := FindMaxCliques(g, Options{BlockRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Stats.Levels); n < 1 || n > 8 {
			t.Fatalf("ratio %.1f: %d levels, expected a small number", ratio, n)
		}
	}
}

func TestLocalExecutorErrorPropagates(t *testing.T) {
	// Force an error by requesting Matrix on an oversized block via a
	// malicious selector bypassing SafePredict.
	blocks := []decomp.Block{{Graph: graph.Empty(mcealg.MatrixMaxNodes + 1)}}
	_, err := (&LocalExecutor{}).Analyze(context.Background(), nil, sealedPlan(blocks), dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Matrix}}, 0, nil)
	if err == nil {
		t.Fatalf("oversized matrix block did not error")
	}
}

func TestLocalExecutorEmpty(t *testing.T) {
	out, err := (&LocalExecutor{}).Analyze(context.Background(), nil, sealedPlan(nil), dtree.Rule{Mode: dtree.RuleAsIs}, 0, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// sealedPlan is a plan already complete over blocks.
func sealedPlan(blocks []decomp.Block) *decomp.Plan {
	p := decomp.NewPlan(len(blocks))
	for _, b := range blocks {
		p.Append(b)
	}
	p.Seal()
	return p
}

// Property: FindMaxCliques equals the reference enumeration for random
// graphs across the paper's m/d ratios.
func TestQuickCompleteness(t *testing.T) {
	ratios := []float64{0.9, 0.5, 0.1}
	f := func(seed int64, modelPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 10
		var g *graph.Graph
		switch modelPick % 3 {
		case 0:
			g = gen.ErdosRenyi(n, 0.2, seed)
		case 1:
			g = gen.BarabasiAlbert(n, 3, seed)
		default:
			g = gen.HolmeKim(n, 4, 0.6, seed)
		}
		want := map[string]bool{}
		for _, c := range mcealg.ReferenceCollect(g) {
			want[key(c)] = true
		}
		for _, r := range ratios {
			res, err := FindMaxCliques(g, Options{BlockRatio: r})
			if err != nil {
				return false
			}
			if len(res.Cliques) != len(want) {
				return false
			}
			for _, c := range res.Cliques {
				if !want[key(c)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Level labelling is consistent — a clique is labelled level
// ≥ 1 exactly when all its nodes are hubs of the original graph.
func TestQuickLevelLabelling(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.BarabasiAlbert(int(seed%60)+20, 4, seed)
		m := g.MaxDegree()/2 + 1
		res, err := FindMaxCliques(g, Options{BlockSize: m})
		if err != nil {
			return false
		}
		if res.Stats.CoreFallback && len(res.Stats.Levels) == 1 {
			// Degenerate case: every node is a hub, level 0 was cut again
			// with every node feasible and labels are all 0.
			return !slices.ContainsFunc(res.Level, func(l int) bool { return l != 0 })
		}
		for i, c := range res.Cliques {
			allHubs := true
			for _, v := range c {
				if g.Degree(v) < m {
					allHubs = false
					break
				}
			}
			if (res.Level[i] >= 1) != allHubs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindMaxCliques(b *testing.B) {
	g := gen.HolmeKim(3000, 6, 0.7, 41)
	for _, ratio := range []float64{0.9, 0.5, 0.1} {
		b.Run(fmt.Sprintf("ratio-%.1f", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FindMaxCliques(g, Options{BlockRatio: ratio}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalExecutor is the dispatch cost on its own number: the plan of
// decomp's BenchmarkGrow (Holme–Kim n = 20 000, m = 56: ≈ 7 k blocks of a
// few microseconds each) through a LocalExecutor at widths 1 and 2 —
// materialise, select and analyse on the workers. Width 2 over width 1 is
// what a second worker buys.
func BenchmarkLocalExecutor(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	const m = 56
	feasible, _ := decomp.Cut(g, m)
	blocks := decomp.Grow(g, feasible, m, decomp.Options{})
	sel := selectionRule(Options{})
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			exec := &LocalExecutor{Parallelism: width}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Analyze(context.Background(), g, sealedPlan(blocks), sel, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(blocks))/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// TestStatsLevelsShrink: Stats.Levels holds one entry per recursion level,
// outermost first, each on a smaller graph than the last, on both routes.
func TestStatsLevelsShrink(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 45)
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	levels := res.Stats.Levels
	if len(levels) < 2 {
		t.Fatalf("fixture ran %d levels, want ≥ 2", len(levels))
	}
	if levels[0].Nodes != g.N() {
		t.Fatalf("level 0 nodes = %d, want %d", levels[0].Nodes, g.N())
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Nodes >= levels[i-1].Nodes {
			t.Fatalf("levels not shrinking: %d then %d nodes", levels[i-1].Nodes, levels[i].Nodes)
		}
	}
	streamed, err := Stream(g, Options{BlockRatio: 0.2}, func([]int32, int) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Levels) != len(levels) {
		t.Fatalf("stream ran %d levels, batch %d", len(streamed.Levels), len(levels))
	}
	for i := range levels {
		if streamed.Levels[i].Nodes != levels[i].Nodes || streamed.Levels[i].Blocks != levels[i].Blocks {
			t.Fatalf("level %d: stream %+v, batch %+v", i, streamed.Levels[i], levels[i])
		}
	}
}

// failingExecutor returns an error on every batch.
type failingExecutor struct{}

func (failingExecutor) Analyze(context.Context, *graph.Graph, *decomp.Plan, dtree.Rule, int, runlog.BatchObserver) ([]family.Window, error) {
	return nil, fmt.Errorf("synthetic executor failure")
}

func TestExecutorErrorPropagates(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.2, 6)
	if _, err := FindMaxCliques(g, Options{Executor: failingExecutor{}}); err == nil {
		t.Fatal("batch engine swallowed executor failure")
	}
	if _, err := Stream(g, Options{Executor: failingExecutor{}}, func([]int32, int) {}); err == nil {
		t.Fatal("stream engine swallowed executor failure")
	}
}

// TestFindMaxCliquesAllocsTrackBlocks is the allocation gate of the enumerate
// leg, the run-level companion of decomp's TestAnalyzerWarmAllocs: between
// two G(n, 0.5) whose clique counts differ by tens of thousands, what a whole
// FindMaxCliques allocates may grow with the blocks (a window each, scratch
// warming to wider blocks) and with the chunks and index pages of the
// arenas, one per few thousand cliques — not with the cliques. Before the
// flat family the difference was one allocation per clique and more.
func TestFindMaxCliquesAllocsTrackBlocks(t *testing.T) {
	type run struct {
		cliques, blocks int
		allocs          float64
	}
	measure := func(n int) run {
		g := gen.ErdosRenyi(n, 0.5, int64(n))
		opts := Options{BlockSize: n / 2, Parallelism: 1}
		res, err := FindMaxCliques(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := run{cliques: len(res.Cliques)}
		for _, l := range res.Stats.Levels {
			r.blocks += l.Blocks
		}
		r.allocs = testing.AllocsPerRun(5, func() {
			if _, err := FindMaxCliques(g, opts); err != nil {
				t.Fatal(err)
			}
		})
		return r
	}
	small, big := measure(60), measure(120)
	if big.cliques-small.cliques < 20000 {
		t.Fatalf("the two graphs hold %d and %d cliques: too close to tell blocks from cliques", small.cliques, big.cliques)
	}
	grew := big.allocs - small.allocs
	if limit := 4*float64(big.blocks) + float64(big.cliques-small.cliques)/1000; grew > limit {
		t.Fatalf("%d → %d cliques in %d → %d blocks took %.0f → %.0f allocations: +%.0f, over the +%.0f that blocks and arena chunks explain",
			small.cliques, big.cliques, small.blocks, big.blocks, small.allocs, big.allocs, grew, limit)
	}
}

// TestResultCliquesDoNotShareCapacity pins package family's ownership rule
// at the public boundary: Result.Cliques[i] is a view clipped to its own
// length, so appending to it copies and the next clique — its neighbour in
// the arena — is intact.
func TestResultCliquesDoNotShareCapacity(t *testing.T) {
	g := gen.HolmeKim(400, 5, 0.7, 13)
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Levels) < 2 || res.Stats.HubCliques == 0 {
		t.Fatalf("want hub-level cliques in the result too (levels %d, hub cliques %d)", len(res.Stats.Levels), res.Stats.HubCliques)
	}
	want := make([]string, len(res.Cliques))
	for i, c := range res.Cliques {
		if cap(c) != len(c) {
			t.Fatalf("clique %d has len %d but cap %d", i, len(c), cap(c))
		}
		want[i] = key(c)
	}
	for i := range res.Cliques {
		res.Cliques[i] = append(res.Cliques[i], -1, -2, -3)
	}
	for i, c := range res.Cliques {
		if got := key(c[:len(c)-3]); got != want[i] {
			t.Fatalf("clique %d is {%s} after its neighbours were appended to, was {%s}", i, got, want[i])
		}
	}
}
