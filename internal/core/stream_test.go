package core

import (
	"errors"
	"testing"

	"mce/internal/gen"
	"mce/internal/graph"
)

// collectStream drains Stream into slices for comparison with the batch
// engine.
func collectStream(t *testing.T, g *graph.Graph, opts Options) ([][]int32, []int, *Stats) {
	t.Helper()
	var cliques [][]int32
	var levels []int
	stats, err := Stream(g, opts, func(c []int32, level int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		cliques = append(cliques, cp)
		levels = append(levels, level)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cliques, levels, stats
}

func TestStreamEmptyGraph(t *testing.T) {
	if _, err := Stream(graph.Empty(0), Options{}, func([]int32, int) {}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestStreamCoreFallback(t *testing.T) {
	g := graph.Complete(8)
	cliques, levels, stats := collectStream(t, g, Options{BlockSize: 3})
	if !stats.CoreFallback {
		t.Fatal("expected fallback on stalled recursion")
	}
	if len(cliques) != 1 || key(cliques[0]) != "0,1,2,3,4,5,6,7" || levels[0] != 0 {
		t.Fatalf("stream fallback = %v @ %v", cliques, levels)
	}
}

func TestStreamHardChain(t *testing.T) {
	g := gen.HardChain(30, 4, 0)
	cliques, _, stats := collectStream(t, g, Options{BlockSize: 5})
	batch, err := FindMaxCliques(g, Options{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != len(batch.Cliques) {
		t.Fatalf("hard chain: stream %d vs batch %d", len(cliques), len(batch.Cliques))
	}
	if len(stats.Levels) != len(batch.Stats.Levels) {
		t.Fatalf("hard chain level counts: %d vs %d", len(stats.Levels), len(batch.Stats.Levels))
	}
}

func TestStreamEmitBufferReused(t *testing.T) {
	// The emitted slice may be reused; a caller who stores aliases would
	// corrupt data. Verify correctness with a copying caller and that a
	// hostile mutation does not break later emissions.
	g := gen.ErdosRenyi(60, 0.2, 4)
	count := 0
	_, err := Stream(g, Options{}, func(c []int32, _ int) {
		count++
		for i := range c {
			c[i] = -1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FindMaxCliques(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(batch.Cliques) {
		t.Fatalf("hostile caller broke the stream: %d vs %d", count, len(batch.Cliques))
	}
}
