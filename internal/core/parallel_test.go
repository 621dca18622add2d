package core

import (
	"fmt"
	"strings"
	"testing"

	"mce/internal/dtree"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// findCliques runs FindMaxCliques and returns the clique sequence verbatim.
func findCliques(t *testing.T, g *graph.Graph, opts Options) [][]int32 {
	t.Helper()
	res, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatalf("FindMaxCliques: %v", err)
	}
	return res.Cliques
}

func assertIdenticalSequence(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cliques, want %d", what, len(got), len(want))
	}
	for i := range want {
		if key(got[i]) != key(want[i]) {
			t.Fatalf("%s: clique %d = {%s}, want {%s} — intra-block parallelism changed the output sequence",
				what, i, key(got[i]), key(want[i]))
		}
	}
}

// TestIntraBlockParallelEquivalence: the full pipeline (decomposition,
// block analysis, hub recursion, Lemma-1 filter) must produce the identical
// clique sequence at every intra-block width. Sequence equality — not just
// set equality — is what keeps checkpoint digests and resume byte-stable.
func TestIntraBlockParallelEquivalence(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"holme-kim", gen.HolmeKim(260, 6, 0.5, 21)},
		{"barabasi-albert", gen.BarabasiAlbert(260, 7, 22)},
		// Dense enough that the recursion stalls: the terminal level is cut
		// into one large block, the shape intra-block parallelism exists for.
		{"dense-core", gen.ErdosRenyi(160, 0.5, 23)},
	}
	for _, tc := range graphs {
		want := findCliques(t, tc.g, Options{})
		if len(want) == 0 {
			t.Fatalf("%s: no cliques — workload too trivial to validate", tc.name)
		}
		for _, w := range []int{2, 4, 8} {
			got := findCliques(t, tc.g, Options{IntraBlockParallelism: w})
			assertIdenticalSequence(t, fmt.Sprintf("%s/w%d", tc.name, w), got, want)
		}
	}
}

// TestIntraBlockParallelStreamEquivalence: the streaming pipeline keeps the
// sequence at every intra-block width too, on a graph whose recursion stalls
// so its terminal level is one large block.
func TestIntraBlockParallelStreamEquivalence(t *testing.T) {
	g := gen.ErdosRenyi(140, 0.45, 31)
	collect := func(opts Options) [][]int32 {
		var out [][]int32
		_, err := Stream(g, opts, func(c []int32, _ int) {
			cp := make([]int32, len(c))
			copy(cp, c)
			out = append(out, cp)
		})
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		return out
	}
	want := collect(Options{})
	got := collect(Options{IntraBlockParallelism: 4})
	assertIdenticalSequence(t, "stream", got, want)
}

// TestParallelSelectorUpgrade: with intra-block parallelism on, large
// BitSets blocks must be upgraded to BitSetsParallel and small ones left
// sequential; fixed non-BitSets combos must never be overridden.
func TestParallelSelectorUpgrade(t *testing.T) {
	sel := selectionRule(Options{IntraBlockParallelism: 4}).Pick
	var scratch kcore.Scratch
	big := gen.ErdosRenyi(dtree.ParallelMinNodes, 0.5, 1)
	if c := sel(big, &scratch); c.Struct != mcealg.BitSetsParallel {
		t.Fatalf("large dense block selected %v, want BitSetsParallel", c)
	}
	small := gen.ErdosRenyi(32, 0.5, 2)
	if c := sel(small, &scratch); c.Struct == mcealg.BitSetsParallel {
		t.Fatalf("small block selected %v; pool overhead should keep it sequential", c)
	}
	lists := mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Lists}
	sel = selectionRule(Options{IntraBlockParallelism: 4, FixedCombo: &lists}).Pick
	if c := sel(big, &scratch); c.Struct != mcealg.Lists {
		t.Fatalf("fixed Lists combo was overridden to %v", c)
	}
	seq := selectionRule(Options{}).Pick
	if c := seq(big, &scratch); c.Struct == mcealg.BitSetsParallel {
		t.Fatalf("selector upgraded to BitSetsParallel without intra-block parallelism")
	}
}

// TestIntraBlockParallelTelemetry: the BitSetsParallel combo indices sit
// above the paper's 12-slot grid; picks and analyses must land in the
// extended cells rather than being silently dropped.
func TestIntraBlockParallelTelemetry(t *testing.T) {
	idx := mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSetsParallel}.Index()
	if idx < 12 || idx >= mcealg.NumCombos {
		t.Fatalf("BitSetsParallel/Tomita index %d outside telemetry range [12, %d)", idx, mcealg.NumCombos)
	}
	met := telemetry.NewEngine()
	g := gen.ErdosRenyi(160, 0.5, 41)
	if _, err := FindMaxCliques(g, Options{IntraBlockParallelism: 4, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	for _, c := range snap.Combos {
		if strings.HasPrefix(c.Combo, "[BitSetsParallel/") && (c.Picks > 0 || c.Blocks > 0) {
			return
		}
	}
	t.Fatalf("no BitSetsParallel combo recorded any picks/blocks in telemetry: %+v", snap.Combos)
}
