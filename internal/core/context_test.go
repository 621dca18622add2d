package core

import (
	"context"
	"errors"
	"testing"

	"mce/internal/decomp"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

func TestFindMaxCliquesContextPreCancelled(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.15, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindMaxCliquesContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, err := StreamContext(ctx, g, Options{}, func([]int32, int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled", err)
	}
}

func TestFindMaxCliquesContextBackground(t *testing.T) {
	g := gen.HolmeKim(150, 4, 0.6, 37)
	res, err := FindMaxCliquesContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, g, res)
}

func TestLocalExecutorContextCancelled(t *testing.T) {
	g := gen.ErdosRenyi(80, 0.15, 41)
	feasible, _ := decomp.Cut(g, g.MaxDegree()+1)
	blocks := decomp.Blocks(g, feasible, g.MaxDegree()+1, decomp.Options{})
	combo := mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exec := &LocalExecutor{}
	if _, err := exec.AnalyzeBlocksContext(ctx, blocks, combo); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAnalyzeBlocksDelegatesToContext pins the non-ctx → ctx delegation:
// AnalyzeBlocks must be exactly AnalyzeBlocksContext(Background), so both
// return the same clique family for the same block list.
func TestAnalyzeBlocksDelegatesToContext(t *testing.T) {
	g := gen.HolmeKim(120, 4, 0.6, 47)
	feasible, _ := decomp.Cut(g, g.MaxDegree()+1)
	blocks := decomp.Blocks(g, feasible, g.MaxDegree()+1, decomp.Options{})
	combo := mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	exec := &LocalExecutor{}
	plain, err := exec.AnalyzeBlocks(blocks, combo)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := exec.AnalyzeBlocksContext(context.Background(), blocks, combo)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("AnalyzeBlocks returned %d block results, AnalyzeBlocksContext %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i].Count != ctxed[i].Count {
			t.Fatalf("block %d: %d cliques without context, %d with background context",
				i, plain[i].Count, ctxed[i].Count)
		}
	}
}
