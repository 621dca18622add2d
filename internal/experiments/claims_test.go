package experiments

import (
	"testing"

	"mce/internal/gen"
	"mce/internal/mcealg"
)

// TestPaperClaims encodes the paper's headline claims as assertions, so the
// reproduction's conclusions are themselves regression-tested rather than
// eyeballed from tables. Timing-sensitive claims use generous margins.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims suite runs the full corpus and surrogate sweeps")
	}

	// §4 / Table 1: "None of the available algorithms outperforms the
	// others in every possible instance of the problem."
	t.Run("NoComboWinsEverywhere", func(t *testing.T) {
		ms := measureQuiet(t, 3)
		winners := map[mcealg.Combo]int{}
		for _, m := range ms {
			winners[m.Best]++
		}
		if len(winners) < 3 {
			t.Fatalf("only %d distinct winning combos across 50 graphs", len(winners))
		}
		for c, wins := range winners {
			if wins == len(ms) {
				t.Fatalf("%v won every instance — Table 1's premise failed", c)
			}
		}

		// §4 / Figure 4: "the use of the decision tree achieves better
		// performance than any other algorithm taken singularly". Timings
		// here come from one pass per combo on a shared machine, so the
		// assertion uses noise-tolerant margins: the tree must beat the
		// median fixed combo and stay within 2× of the best one (in the
		// quiet full-evaluation runs it actually beats the best; see
		// EXPERIMENTS.md Figure 4).
		eval := Figures3And4(ms)
		best := eval.FixedTimes[0].Total
		median := eval.FixedTimes[len(eval.FixedTimes)/2].Total
		t.Logf("tree %v, best fixed %v, median fixed %v", eval.TreeTime, best, median)
		if eval.TreeTime > median {
			t.Fatalf("decision tree (%v) slower than the median fixed combo (%v)", eval.TreeTime, median)
		}
		if float64(eval.TreeTime) > 2*float64(best) {
			t.Fatalf("decision tree (%v) more than 2x behind the best fixed combo (%v)", eval.TreeTime, best)
		}
	})

	// §6.3 / Figures 9–11: hub-only cliques appear as m shrinks, are at
	// least comparable in average size to feasible-side cliques, and take a
	// significant share of the largest cliques.
	t.Run("HubCliquesSignificant", func(t *testing.T) {
		spec, err := gen.Dataset("twitter2")
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build()
		results, err := RunRatioSweep(g, []float64{0.9, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		wide, tight := results[0], results[1]
		if tight.HubCliques <= wide.HubCliques {
			t.Fatalf("hub cliques did not grow as m shrank: %d → %d", wide.HubCliques, tight.HubCliques)
		}
		if tight.HubCliques == 0 {
			t.Fatal("no hub-only cliques at m/d = 0.1")
		}
		if tight.AvgSizeHub < tight.AvgSizeFeasible {
			t.Fatalf("hub cliques smaller on average (%0.2f) than feasible ones (%0.2f)",
				tight.AvgSizeHub, tight.AvgSizeFeasible)
		}
		if tight.Top200HubShare < 0.2 {
			t.Fatalf("hub share of the 200 largest cliques = %.0f%%, paper band starts at 20%%",
				100*tight.Top200HubShare)
		}
		// Completeness never depends on m: both sweeps found the same total.
		if wide.FeasibleCliques+wide.HubCliques != tight.FeasibleCliques+tight.HubCliques {
			t.Fatalf("clique totals differ across ratios: %d vs %d",
				wide.FeasibleCliques+wide.HubCliques, tight.FeasibleCliques+tight.HubCliques)
		}
	})

	// §1 / abstract: "if hub nodes were neglected, significant cliques
	// would be undetected" — the EmMCE-style baseline must lose cliques at
	// a small m while the two-level engine does not (checked throughout the
	// completeness property tests).
	t.Run("NeglectingHubsLosesCliques", func(t *testing.T) {
		spec, err := gen.Dataset("twitter1")
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build()
		results, err := HubNeglectBaseline(g, []float64{0.1})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Missed == 0 {
			t.Fatal("baseline missed nothing at m/d = 0.1; the failure mode did not manifest")
		}
		if r.Missed+r.Spurious < 20 {
			t.Fatalf("baseline only %d missed + %d spurious — too mild to support the claim",
				r.Missed, r.Spurious)
		}
	})

	// §6.2 / Theorem 1: real-world-shaped networks need only a few
	// first-level iterations (2–3 in the paper), while the adversarial
	// chain needs Ω(n).
	t.Run("IterationCounts", func(t *testing.T) {
		spec, err := gen.Dataset("google+")
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunRatioSweep(spec.Build(), []float64{0.9, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Iterations > 4 {
				t.Fatalf("m/d=%.1f needed %d iterations; paper reports 2–3", r.Ratio, r.Iterations)
			}
		}
		points, err := HardChainRounds([]int{60}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if points[0].Iterations < 50 {
			t.Fatalf("hard chain n=60 needed only %d iterations; want Ω(n)", points[0].Iterations)
		}
	})
}

// measureQuiet measures the corpus `passes` times and keeps, per graph and
// combo, the fastest pass, with Best re-derived from those. A corpus run is
// a few milliseconds and `go test ./...` runs packages side by side, so one
// pass carries scheduler noise of the same order as the gaps between the
// packed-store combos (Matrix and BitSets are one store; only the algorithm
// separates them); the minimum is the estimate that noise cannot inflate.
func measureQuiet(t *testing.T, passes int) []CorpusMeasurement {
	t.Helper()
	corpus := gen.Corpus(1)
	var ms []CorpusMeasurement
	for p := 0; p < passes; p++ {
		pass, err := MeasureCorpus(corpus)
		if err != nil {
			t.Fatal(err)
		}
		if ms == nil {
			ms = pass
			continue
		}
		for i := range ms {
			for c, d := range pass[i].Times {
				if d < ms[i].Times[c] {
					ms[i].Times[c] = d
				}
			}
		}
	}
	for i := range ms {
		for _, c := range mcealg.AllCombos() {
			if ms[i].Times[c] < ms[i].Times[ms[i].Best] {
				ms[i].Best = c
			}
		}
	}
	return ms
}
