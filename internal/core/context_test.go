package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/runlog"
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
	if _, err := exec.Analyze(ctx, nil, sealedPlan(blocks), dtree.Rule{Mode: dtree.RuleAsIs, Combo: combo}, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// stoppingExecutor stops a level's analysis once the block at plan position
// after has been planned: by cancelling the run's context, or by handing
// the pool a combo that fails its first block. It records the level-0 plan
// it was handed.
type stoppingExecutor struct {
	after  int
	cancel context.CancelFunc // nil: fail a block instead
	inner  LocalExecutor
	plan   *decomp.Plan
}

var errBadCombo = mcealg.Combo{Alg: 99}

func (e *stoppingExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	if e.plan == nil {
		e.plan = plan
	}
	plan.Block(e.after) // the grower is past the stop
	if e.cancel != nil {
		e.cancel()
	} else {
		rule = dtree.Rule{Mode: dtree.RuleAsIs, Combo: errBadCombo}
	}
	return e.inner.Analyze(ctx, g, plan, rule, level, obs)
}

// TestGrowerStopsWithTheLevel: a level whose analysis stops in the middle —
// its context cancelled, or one block failing on a LocalExecutor worker —
// stops its grower too. The plan is sealed short of the level's blocks, the
// run fails with the cancellation or the block's error, and no goroutine of
// the run (grower or worker) is left behind.
func TestGrowerStopsWithTheLevel(t *testing.T) {
	g := gen.HolmeKim(50000, 5, 0.7, 42)
	const m = 56
	feasible, _ := decomp.Cut(g, m)
	whole := len(decomp.Grow(g, feasible, m, decomp.Options{}))
	baseline := runtime.NumGoroutine()
	for _, cancelled := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		exec := &stoppingExecutor{after: 3, inner: LocalExecutor{Parallelism: 2}}
		if cancelled {
			exec.cancel = cancel
		}
		_, err := FindMaxCliquesContext(ctx, g, Options{BlockSize: m, Executor: exec})
		cancel()
		if cancelled && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled level: err = %v, want context.Canceled", err)
		}
		if !cancelled && (err == nil || errors.Is(err, context.Canceled)) {
			t.Fatalf("failed block: err = %v, want the block's error", err)
		}
		if p := exec.plan; !p.Sealed() || p.Len() >= whole {
			t.Fatalf("cancelled=%v: the grower planned %d of %d blocks (sealed %v), want it stopped early",
				cancelled, p.Len(), whole, p.Sealed())
		}
		// A worker may still be between its last Done and its exit.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("cancelled=%v: %d goroutines, baseline %d\n%s",
					cancelled, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// sealedFirstExecutor hands a LocalExecutor each plan only once it is sealed.
type sealedFirstExecutor struct{ inner LocalExecutor }

func (e *sealedFirstExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	for i := 1; plan.Block(i) != nil; i++ { // walk to the seal; taking block 0 would start the analysis
	}
	return e.inner.Analyze(ctx, g, plan, rule, level, obs)
}

// TestOverlappedLevelMatchesSealed: a level grown beside its analysis
// yields the family, in the same order, that the same pool yields from the
// sealed plan, at widths 1 and 2. A level analysed only once its plan is
// sealed did not overlap, so its decomp and analysis fit in its wall.
func TestOverlappedLevelMatchesSealed(t *testing.T) {
	g := gen.HolmeKim(8000, 5, 0.7, 7)
	const m = 40
	for _, width := range []int{1, 2} {
		overlapped, err := FindMaxCliques(g, Options{BlockSize: m, Parallelism: width})
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := FindMaxCliques(g, Options{BlockSize: m, Executor: &sealedFirstExecutor{LocalExecutor{Parallelism: width}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(overlapped.Cliques) != len(sealed.Cliques) {
			t.Fatalf("width %d: %d cliques overlapped, %d sealed", width, len(overlapped.Cliques), len(sealed.Cliques))
		}
		for i := range sealed.Cliques {
			if !slices.Equal(overlapped.Cliques[i], sealed.Cliques[i]) {
				t.Fatalf("width %d: clique %d is %v overlapped, %v sealed", width, i, overlapped.Cliques[i], sealed.Cliques[i])
			}
		}
		if a, b := overlapped.Stats.Levels[0], sealed.Stats.Levels[0]; a.Blocks != b.Blocks || a.Kernel != b.Kernel || a.Border != b.Border || a.Visited != b.Visited {
			t.Fatalf("width %d: level 0 stats %+v overlapped, %+v sealed", width, a, b)
		}
		for i, ls := range sealed.Stats.Levels {
			if ls.Decomp+ls.Analysis > ls.Wall {
				t.Fatalf("width %d: sealed level %d: decomp %v + analysis %v exceed its wall %v",
					width, i, ls.Decomp, ls.Analysis, ls.Wall)
			}
		}
	}
}

// TestLocalExecutorPlanSealedDuringCall: a LocalExecutor handed a plan that
// its writer fills and seals while the call is starting analyses every
// block, whichever of the pool's loads the seal falls between.
func TestLocalExecutorPlanSealedDuringCall(t *testing.T) {
	g := gen.HolmeKim(300, 4, 0.6, 11)
	m := g.MaxDegree() + 1
	feasible, _ := decomp.Cut(g, m)
	blocks := decomp.Grow(g, feasible, m, decomp.Options{})
	exec := &LocalExecutor{Parallelism: 2}
	sel := dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}}
	want, err := exec.Analyze(context.Background(), g, sealedPlan(blocks), sel, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		plan := decomp.NewPlan(len(blocks))
		go func() {
			defer plan.Seal()
			for _, b := range blocks {
				plan.Append(b)
			}
		}()
		got, err := exec.Analyze(context.Background(), g, plan, sel, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d block results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Count != want[i].Count {
				t.Fatalf("trial %d: block %d has %d cliques, want %d", trial, i, got[i].Count, want[i].Count)
			}
		}
	}
}
