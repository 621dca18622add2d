package core

import (
	"context"
	"testing"
	"time"

	"mce/internal/decomp"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// telemetryGraph is a multi-level test input: a Holme–Kim scale-free graph
// whose hubs force at least one hub recursion at a small m.
func telemetryGraph() *graph.Graph {
	return gen.HolmeKim(300, 4, 0.6, 7)
}

func TestFindMaxCliquesTelemetrySnapshot(t *testing.T) {
	g := telemetryGraph()
	eng := telemetry.NewEngine()
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.3, Metrics: eng})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)

	s := res.Stats.Telemetry
	if s == nil {
		t.Fatal("Stats.Telemetry is nil with Metrics set")
	}
	if s.BlocksBuilt == 0 || s.BlocksAnalyzed != s.BlocksBuilt {
		t.Fatalf("blocks built=%d analysed=%d", s.BlocksBuilt, s.BlocksAnalyzed)
	}
	if s.RecursionNodes == 0 || s.PivotSelections == 0 {
		t.Fatalf("mcealg counters empty: nodes=%d pivots=%d", s.RecursionNodes, s.PivotSelections)
	}
	if s.LevelsCompleted != int64(len(res.Stats.Levels)) {
		t.Fatalf("LevelsCompleted = %d, want %d", s.LevelsCompleted, len(res.Stats.Levels))
	}
	if s.QueueDepth != 0 || s.TasksInFlight != 0 {
		t.Fatalf("gauges not back to zero: queue=%d inflight=%d", s.QueueDepth, s.TasksInFlight)
	}
	if s.BlockNs.Count != s.BlocksAnalyzed {
		t.Fatalf("BlockNs.Count = %d, want %d", s.BlockNs.Count, s.BlocksAnalyzed)
	}
	var picks int64
	for _, c := range s.Combos {
		picks += c.Picks
		if c.Combo == "" {
			t.Fatalf("combo slot without label: %+v", c)
		}
	}
	if picks < s.BlocksBuilt {
		t.Fatalf("combo picks = %d, want ≥ %d", picks, s.BlocksBuilt)
	}
	// CliquesFound counts raw per-level discoveries; the Lemma 1 filter
	// removes HubCliquesFiltered of them to produce the returned family.
	if s.CliquesFound-s.HubCliquesFiltered != int64(res.Stats.TotalCliques) {
		t.Fatalf("found %d − filtered %d ≠ returned %d",
			s.CliquesFound, s.HubCliquesFiltered, res.Stats.TotalCliques)
	}
}

func TestTelemetryNilByDefault(t *testing.T) {
	res, err := FindMaxCliques(telemetryGraph(), Options{BlockRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Telemetry != nil {
		t.Fatalf("Stats.Telemetry = %+v without Metrics", res.Stats.Telemetry)
	}
}

func TestStreamTelemetrySnapshot(t *testing.T) {
	g := telemetryGraph()
	eng := telemetry.NewEngine()
	n := 0
	stats, err := Stream(g, Options{BlockRatio: 0.3, Metrics: eng}, func([]int32, int) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	s := stats.Telemetry
	if s == nil {
		t.Fatal("stream Stats.Telemetry is nil with Metrics set")
	}
	if s.BlocksBuilt == 0 || s.RecursionNodes == 0 {
		t.Fatalf("stream telemetry empty: %+v", s)
	}
	if s.CliquesFound-s.HubCliquesFiltered != int64(n) {
		t.Fatalf("found %d − filtered %d ≠ emitted %d", s.CliquesFound, s.HubCliquesFiltered, n)
	}
}

// TestLevelStatsAggregation pins the cross-level accounting of Stats.Levels
// against the run's ground truth: per-level Kernel equals Feasible (every
// feasible node is kernel in exactly one block), the level clique counts sum
// to the raw discoveries, and the returned totals match TotalCliques and
// HubCliques.
func TestLevelStatsAggregation(t *testing.T) {
	g := telemetryGraph()
	eng := telemetry.NewEngine()
	res, err := FindMaxCliques(g, Options{BlockRatio: 0.25, Metrics: eng})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Levels) < 2 {
		t.Fatalf("want a multi-level run, got %d levels", len(res.Stats.Levels))
	}
	var levelCliques, levelMembers, levelArena int64
	var cut, blocks, induce, sel time.Duration
	for i, lvl := range res.Stats.Levels {
		if lvl.Decomp != lvl.CutTime+lvl.BlocksTime {
			t.Fatalf("level %d: Decomp %v ≠ cut %v + grow %v", i, lvl.Decomp, lvl.CutTime, lvl.BlocksTime)
		}
		if lvl.Blocks > 0 && (lvl.BlocksTime <= 0 || lvl.InduceTime <= 0 || lvl.SelectTime <= 0) {
			t.Fatalf("level %d: %d blocks but grow=%v induce=%v select=%v", i, lvl.Blocks, lvl.BlocksTime, lvl.InduceTime, lvl.SelectTime)
		}
		cut, blocks, induce, sel = cut+lvl.CutTime, blocks+lvl.BlocksTime, induce+lvl.InduceTime, sel+lvl.SelectTime
		if lvl.Blocks > 0 && lvl.Kernel != lvl.Feasible {
			t.Fatalf("level %d: Kernel %d ≠ Feasible %d", i, lvl.Kernel, lvl.Feasible)
		}
		if lvl.Blocks > 0 && lvl.Kernel+lvl.Border+lvl.Visited < lvl.Nodes {
			// Blocks cover the level's graph: every node is kernel, border
			// or visited in at least one block.
			t.Fatalf("level %d: kernel+border+visited %d < nodes %d",
				i, lvl.Kernel+lvl.Border+lvl.Visited, lvl.Nodes)
		}
		levelCliques += int64(lvl.Cliques)
		// How the level's family was held: at least one arena when it
		// found a clique, and arenas no smaller than what they hold (four
		// bytes a member, eight a clique).
		if (lvl.Cliques > 0) != (lvl.Arenas > 0) || lvl.Members < lvl.Cliques ||
			lvl.ArenaBytes < int64(4*lvl.Members+8*lvl.Cliques) {
			t.Fatalf("level %d: %d cliques of %d members in %d arenas of %d bytes",
				i, lvl.Cliques, lvl.Members, lvl.Arenas, lvl.ArenaBytes)
		}
		levelMembers += int64(lvl.Members)
		levelArena += lvl.ArenaBytes
	}
	s := res.Stats.Telemetry
	if s.FamilyMembers != levelMembers || s.FamilyArenaBytes != levelArena {
		t.Fatalf("telemetry family members/arena = %d/%d, levels sum to %d/%d",
			s.FamilyMembers, s.FamilyArenaBytes, levelMembers, levelArena)
	}
	if s.CutNs != int64(cut) || s.BlocksNs != int64(blocks) || s.InduceNs != int64(induce) || s.SelectNs != int64(sel) {
		t.Fatalf("telemetry cut/grow/induce/select = %d/%d/%d/%d ns, levels sum to %d/%d/%d/%d",
			s.CutNs, s.BlocksNs, s.InduceNs, s.SelectNs, cut, blocks, induce, sel)
	}
	// Without an engine the workers read no clock: the sums stay zero.
	plain, err := FindMaxCliques(g, Options{BlockRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range plain.Stats.Levels {
		if lvl.InduceTime != 0 || lvl.SelectTime != 0 {
			t.Fatalf("level %d without telemetry: induce=%v select=%v, want 0", i, lvl.InduceTime, lvl.SelectTime)
		}
	}
	if levelCliques != s.CliquesFound {
		t.Fatalf("sum(Levels.Cliques) = %d, telemetry CliquesFound = %d", levelCliques, s.CliquesFound)
	}
	if levelCliques-s.HubCliquesFiltered != int64(res.Stats.TotalCliques) {
		t.Fatalf("levels %d − filtered %d ≠ total %d", levelCliques, s.HubCliquesFiltered, res.Stats.TotalCliques)
	}
	hubLevels := 0
	for _, lvl := range res.Level {
		if lvl >= 1 {
			hubLevels++
		}
	}
	if hubLevels != res.Stats.HubCliques {
		t.Fatalf("Level entries ≥1 = %d, HubCliques = %d", hubLevels, res.Stats.HubCliques)
	}
	if res.Stats.TotalCliques != len(res.Cliques) {
		t.Fatalf("TotalCliques %d ≠ len(Cliques) %d", res.Stats.TotalCliques, len(res.Cliques))
	}
}

// TestWarmAnalyzerZeroAllocs proves that telemetry adds no allocation to
// the block-analysis hot loop, off or on: a warm analyzer allocates nothing
// per block, and adding each block's timing and recursion counts to the
// engine allocates nothing either, on a nil engine and on a live one.
func TestWarmAnalyzerZeroAllocs(t *testing.T) {
	g := gen.HolmeKim(200, 5, 0.5, 3)
	feasible, _ := decomp.Cut(g, 40)
	blocks := decomp.Blocks(g, feasible, 40, decomp.Options{})
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	combo := mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	emit := func([]int32) {}
	for _, met := range []*telemetry.Engine{nil, telemetry.NewEngine()} {
		var an decomp.Analyzer
		run := func() {
			for i := range blocks {
				t0 := met.Now()
				if err := an.Analyze(&blocks[i], combo, emit, mcealg.Par{}); err != nil {
					t.Fatal(err)
				}
				met.ComboAnalyzed(combo.Index(), met.Since(t0))
				nodes, pivots := an.Counts()
				met.Add(telemetry.RecursionNodes, nodes)
				met.Add(telemetry.PivotSelections, pivots)
			}
		}
		run() // warm the analyzer's scratch
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("engine %p: a warm analyzer allocates %v/run, want 0", met, allocs)
		}
		if met != nil && met.Load(telemetry.RecursionNodes) == 0 {
			t.Fatal("the live engine counted no recursion nodes")
		}
	}
}

// BenchmarkAnalyzeBlocksTelemetry quantifies the telemetry overhead on the
// worker loop — materialise, select, analyse over a planned level, one
// worker. The disabled case reads no clock and must report no allocation
// beyond the cliques it returns — run with -benchmem to compare.
func BenchmarkAnalyzeBlocksTelemetry(b *testing.B) {
	g := gen.HolmeKim(400, 5, 0.5, 3)
	feasible, _ := decomp.Cut(g, 60)
	blocks := decomp.Grow(g, feasible, 60, decomp.Options{})
	sel := selectionRule(Options{})
	run := func(b *testing.B, eng *telemetry.Engine) {
		exec := &LocalExecutor{Parallelism: 1, Metrics: eng}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := exec.Analyze(context.Background(), g, sealedPlan(blocks), sel, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, telemetry.NewEngine()) })
}

// TestTerminalLevelCounted: a stalled recursion's terminal level runs through
// the executor like any level, so its kernel work is counted, and the counts
// do not depend on how the level was spread over workers — one block worker,
// two, or one with a two-wide intra-block pool.
func TestTerminalLevelCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"G(226,0.5)", gen.ErdosRenyi(226, 0.5, 2016)},
		{"ring WS(4000,4,0)", gen.WattsStrogatz(4000, 4, 0, 1)},
	} {
		var want telemetry.Snapshot
		for i, opts := range []Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 1, IntraBlockParallelism: 2}} {
			opts.Metrics = telemetry.NewEngine()
			res, err := FindMaxCliques(tc.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.CoreFallback {
				t.Fatalf("%s: the recursion did not stall at default options", tc.name)
			}
			s := *res.Stats.Telemetry
			if s.RecursionNodes == 0 || s.PivotSelections == 0 {
				t.Fatalf("%s %+v: terminal level uncounted: nodes=%d pivots=%d", tc.name, opts, s.RecursionNodes, s.PivotSelections)
			}
			if i == 0 {
				want = s
				t.Logf("%s: %d recursion nodes, %d pivots", tc.name, s.RecursionNodes, s.PivotSelections)
				continue
			}
			if s.RecursionNodes != want.RecursionNodes || s.PivotSelections != want.PivotSelections {
				t.Fatalf("%s %+v: nodes=%d pivots=%d, want %d and %d as at width 1",
					tc.name, opts, s.RecursionNodes, s.PivotSelections, want.RecursionNodes, want.PivotSelections)
			}
		}
	}
}
