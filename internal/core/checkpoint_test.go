package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"mce/internal/decomp"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

// sortedFamily canonicalises a clique family for set comparison.
func sortedFamily(cliques [][]int32) []string {
	out := make([]string, len(cliques))
	for i, c := range cliques {
		out[i] = fmt.Sprint(c)
	}
	sort.Strings(out)
	return out
}

func familiesEqual(a, b [][]int32) bool {
	sa, sb := sortedFamily(a), sortedFamily(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func openCheckpoint(t *testing.T, dir string, g *graph.Graph, opts Options) *runlog.Checkpoint {
	t.Helper()
	cp, err := runlog.Open(dir, CheckpointIdentity(g, opts), runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointedRunMatchesPlain pins that checkpointing is invisible to
// the result: same cliques, same order, and the journal records completion.
func TestCheckpointedRunMatchesPlain(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 19)
	opts := Options{BlockSize: 24}
	plain, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cpOpts := opts
	cpOpts.Checkpoint = openCheckpoint(t, dir, g, opts)
	chk, err := FindMaxCliques(g, cpOpts)
	if err != nil {
		t.Fatal(err)
	}
	cpOpts.Checkpoint.Close()
	if !familiesEqual(plain.Cliques, chk.Cliques) {
		t.Fatalf("checkpointed run found %d cliques, plain %d", len(chk.Cliques), len(plain.Cliques))
	}
	if chk.Stats.ResumedBlocks != 0 {
		t.Fatalf("fresh checkpointed run resumed %d blocks", chk.Stats.ResumedBlocks)
	}

	reopened := openCheckpoint(t, dir, g, opts)
	defer reopened.Close()
	if !reopened.Completed() {
		t.Fatal("completed run's journal does not record run end")
	}
}

// TestResumeServesEveryBlockFromLog pins the full-resume path: after a
// completed checkpointed run, a resumed run must answer entirely from the
// journal and the level logs — the executor must never be invoked.
func TestResumeServesEveryBlockFromLog(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	opts := Options{BlockSize: 20}
	dir := t.TempDir()

	cpOpts := opts
	cpOpts.Checkpoint = openCheckpoint(t, dir, g, opts)
	first, err := FindMaxCliques(g, cpOpts)
	if err != nil {
		t.Fatal(err)
	}
	cpOpts.Checkpoint.Close()
	totalBlocks := 0
	for _, lvl := range first.Stats.Levels {
		totalBlocks += lvl.Blocks
		if lvl.Blocks == 0 && lvl.Hubs == lvl.Nodes {
			totalBlocks++ // terminal core counts as one journaled block
		}
	}

	met := telemetry.NewEngine()
	resOpts := opts
	resOpts.Executor = forbiddenExecutor{}
	resOpts.Metrics = met
	cp, err := runlog.Open(dir, CheckpointIdentity(g, opts), runlog.Options{FS: faultfs.Unsynced(nil), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	resOpts.Checkpoint = cp
	resumed, err := FindMaxCliques(g, resOpts)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !familiesEqual(first.Cliques, resumed.Cliques) {
		t.Fatalf("resume changed the clique set: %d vs %d", len(resumed.Cliques), len(first.Cliques))
	}
	if resumed.Stats.ResumedBlocks != totalBlocks {
		t.Fatalf("ResumedBlocks = %d, want every block (%d)", resumed.Stats.ResumedBlocks, totalBlocks)
	}
	if n := met.Snapshot().CheckpointBlocksSkipped; int(n) != totalBlocks {
		t.Fatalf("telemetry skipped counter = %d, want %d", n, totalBlocks)
	}
}

// forbiddenExecutor fails the test if a resumed run dispatches anything.
type forbiddenExecutor struct{}

func (forbiddenExecutor) Analyze(context.Context, *graph.Graph, []decomp.Block, Selector, []runlog.BlockID, runlog.BatchObserver) ([]family.Window, error) {
	return nil, errors.New("executor invoked on a fully-journaled resume")
}

// flakyExecutor wraps a LocalExecutor and injects a deterministic crash
// after a budget of block completions — the stand-in for a coordinator
// dying mid-run. It processes blocks one at a time so the failure point is
// exact.
type flakyExecutor struct {
	inner  *LocalExecutor
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected executor failure")

func (f *flakyExecutor) take() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget <= 0 {
		return false
	}
	f.budget--
	return true
}

func (f *flakyExecutor) Analyze(ctx context.Context, g *graph.Graph, blocks []decomp.Block, sel Selector, ids []runlog.BlockID, obs runlog.BatchObserver) ([]family.Window, error) {
	out := make([]family.Window, len(blocks))
	for i := range blocks {
		if !f.take() {
			return nil, errInjected
		}
		res, err := f.inner.Analyze(ctx, g, blocks[i:i+1], sel, ids[i:i+1], obs)
		if err != nil {
			return nil, err
		}
		out[i] = res[0]
	}
	return out, nil
}

// TestResumeAfterResume drives a run through two injected crashes and a
// final clean session, asserting each resume picks up strictly after the
// last — the satellite's resume-after-resume requirement — and that the
// final clique set matches an uninterrupted run.
func TestResumeAfterResume(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 23)
	opts := Options{BlockSize: 24}
	want, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	budgets := []int{2, 3}
	var prevDone int64
	for session, budget := range budgets {
		cp := openCheckpoint(t, dir, g, opts)
		runOpts := opts
		runOpts.Checkpoint = cp
		runOpts.Executor = &flakyExecutor{inner: &LocalExecutor{Parallelism: 1}, budget: budget}
		_, err := FindMaxCliques(g, runOpts)
		if !errors.Is(err, errInjected) {
			cp.Close()
			t.Fatalf("session %d: err %v, want injected failure", session, err)
		}
		done := cp.SkippedBlocks()
		if session > 0 && done < prevDone {
			t.Fatalf("session %d resumed fewer blocks (%d) than the previous session completed (%d)", session, done, prevDone)
		}
		prevDone = done + int64(budget)
		cp.Close()
	}

	cp := openCheckpoint(t, dir, g, opts)
	finalOpts := opts
	finalOpts.Checkpoint = cp
	got, err := FindMaxCliques(g, finalOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.ResumedBlocks == 0 {
		t.Fatal("final session resumed nothing despite two crashed predecessors")
	}
	cp.Close()
	if !familiesEqual(want.Cliques, got.Cliques) {
		t.Fatalf("resume-after-resume changed the clique set: %d vs %d cliques", len(got.Cliques), len(want.Cliques))
	}
}

// TestStreamRejectsCheckpoint pins the exactly-once guard: streaming
// cannot be checkpointed.
func TestStreamRejectsCheckpoint(t *testing.T) {
	g := gen.ErdosRenyi(50, 0.2, 3)
	opts := Options{BlockSize: 10}
	cp := openCheckpoint(t, t.TempDir(), g, opts)
	defer cp.Close()
	opts.Checkpoint = cp
	_, err := Stream(g, opts, func([]int32, int) {})
	if err == nil {
		t.Fatal("streaming accepted a checkpoint")
	}
}

// TestCheckpointIdentitySensitivity pins which options are plan-affecting:
// the identity must move when they change and hold still when transport or
// scheduling options change.
func TestCheckpointIdentitySensitivity(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.2, 5)
	base := Options{BlockSize: 12}
	id := CheckpointIdentity(g, base)

	changed := []Options{
		{BlockSize: 13},
		{BlockSize: 12, Block: decomp.Options{MinAdjacency: 3}},
		{BlockSize: 12, Block: decomp.Options{Order: decomp.OrderRandom, Seed: 42}},
		{BlockSize: 12, MaxLevels: 1},
	}
	for i, o := range changed {
		if CheckpointIdentity(g, o) == id {
			t.Fatalf("plan-affecting change %d did not move the identity", i)
		}
	}

	same := []Options{
		{BlockSize: 12, Parallelism: 7},
	}
	for i, o := range same {
		if CheckpointIdentity(g, o) != id {
			t.Fatalf("plan-neutral change %d moved the identity", i)
		}
	}

	g2 := gen.ErdosRenyi(60, 0.2, 6)
	if CheckpointIdentity(g2, base) == id {
		t.Fatal("different graph, same identity")
	}
}
