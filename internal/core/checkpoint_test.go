package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"mce/internal/decomp"
	"mce/internal/dtree"
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
// journal and the level logs — the executor must never be invoked. The ring
// lattice stalls at its default m, so its one level is the terminal level,
// journaled block by block like any other.
func TestResumeServesEveryBlockFromLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"BA(300,3)", gen.BarabasiAlbert(300, 3, 7), Options{BlockSize: 20}},
		{"ring WS(4000,4,0)", gen.WattsStrogatz(4000, 4, 0, 1), Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, opts := tc.g, tc.opts
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
			if resumed.Stats.CoreFallback != first.Stats.CoreFallback {
				t.Fatalf("resume reports CoreFallback %v, the first run %v", resumed.Stats.CoreFallback, first.Stats.CoreFallback)
			}
			// No level is planned again: BLOCKS never runs on a full resume,
			// and each served level reports the journal's count, Kernel =
			// Feasible and no border, visited or grow time.
			if n := met.Snapshot().BlocksBuilt; n != 0 {
				t.Fatalf("a full resume built %d blocks, want 0", n)
			}
			if len(resumed.Stats.Levels) != len(first.Stats.Levels) {
				t.Fatalf("resume ran %d levels, the first run %d", len(resumed.Stats.Levels), len(first.Stats.Levels))
			}
			for i, lvl := range resumed.Stats.Levels {
				was := first.Stats.Levels[i]
				if lvl.Blocks != was.Blocks || lvl.Kernel != lvl.Feasible || lvl.Feasible != was.Feasible ||
					lvl.Border != 0 || lvl.Visited != 0 || lvl.BlocksTime != 0 || lvl.Cliques != was.Cliques {
					t.Fatalf("served level %d reports %+v, first run %+v", i, lvl, was)
				}
			}
		})
	}
}

// TestResumeInsideStalledLevel: a run stopped partway through a stalled
// recursion's terminal level resumes inside that level — the blocks it
// finished are served from the level's log, only the rest run again, and
// the family is the uninterrupted run's.
func TestResumeInsideStalledLevel(t *testing.T) {
	g := gen.WattsStrogatz(4000, 4, 0, 1)
	opts := Options{}
	want, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Stats.CoreFallback || len(want.Stats.Levels) != 1 {
		t.Fatalf("ring lattice: CoreFallback %v over %d levels, want a stall at level 0", want.Stats.CoreFallback, len(want.Stats.Levels))
	}
	lvl := want.Stats.Levels[0]
	if lvl.Feasible != lvl.Nodes || lvl.Hubs != 0 || lvl.Kernel != lvl.Nodes || lvl.Blocks < 10 {
		t.Fatalf("terminal level reports %+v, want every node feasible and kernel, no hubs, many blocks", lvl)
	}

	dir := t.TempDir()
	cp := openCheckpoint(t, dir, g, opts)
	runOpts := opts
	runOpts.Checkpoint = cp
	runOpts.Executor = &flakyExecutor{inner: &LocalExecutor{Parallelism: 1}, budget: lvl.Blocks / 3}
	if _, err := FindMaxCliques(g, runOpts); !errors.Is(err, errInjected) {
		cp.Close()
		t.Fatalf("interrupted session: err %v, want injected failure", err)
	}
	cp.Close()

	cp = openCheckpoint(t, dir, g, opts)
	defer cp.Close()
	runOpts = opts
	runOpts.Checkpoint = cp
	got, err := FindMaxCliques(g, runOpts)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Stats.ResumedBlocks; n <= 0 || n >= lvl.Blocks {
		t.Fatalf("ResumedBlocks = %d, want strictly between 0 and the level's %d blocks", n, lvl.Blocks)
	}
	if !got.Stats.CoreFallback {
		t.Fatal("resumed run does not report the stall")
	}
	if !familiesEqual(want.Cliques, got.Cliques) {
		t.Fatalf("resume inside the terminal level changed the clique set: %d vs %d cliques", len(got.Cliques), len(want.Cliques))
	}
}

// TestResumeLevelWithoutSeal: a run killed inside level 0 leaves done
// records and no seal record for it. The resume grows the level again,
// serves exactly the blocks the journal has done — matched by membership
// digest, with no seal to vouch for the plan — runs the rest, and yields the
// uninterrupted family in its order.
func TestResumeLevelWithoutSeal(t *testing.T) {
	g := gen.HolmeKim(400, 5, 0.7, 29)
	opts := Options{BlockSize: 24}
	want, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	const done = 5
	if want.Stats.Levels[0].Blocks <= 2*done {
		t.Fatalf("level 0 has %d blocks, want more than %d", want.Stats.Levels[0].Blocks, 2*done)
	}
	dir := t.TempDir()
	cp := openCheckpoint(t, dir, g, opts)
	runOpts := opts
	runOpts.Checkpoint = cp
	runOpts.Executor = &flakyExecutor{inner: &LocalExecutor{Parallelism: 1}, budget: done}
	if _, err := FindMaxCliques(g, runOpts); !errors.Is(err, errInjected) {
		cp.Close()
		t.Fatalf("interrupted session: err %v, want injected failure", err)
	}
	cp.Close()

	cp = openCheckpoint(t, dir, g, opts)
	defer cp.Close()
	if served, ok := cp.ServedLevel(0); ok {
		t.Fatalf("level 0, never sealed, is served whole: %d blocks", len(served))
	}
	exec := &recordingExecutor{inner: LocalExecutor{Parallelism: 2}}
	runOpts = opts
	runOpts.Checkpoint, runOpts.Executor = cp, exec
	got, err := FindMaxCliques(g, runOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.ResumedBlocks != done {
		t.Fatalf("ResumedBlocks = %d, want the %d blocks the journal has done", got.Stats.ResumedBlocks, done)
	}
	total := 0
	for _, lvl := range want.Stats.Levels {
		total += lvl.Blocks
	}
	if len(exec.ids) != total-done {
		t.Fatalf("the resume ran %d blocks, want the %d not done", len(exec.ids), total-done)
	}
	if !reflect.DeepEqual(want.Cliques, got.Cliques) {
		t.Fatalf("the resume changed the cliques or their order: %d vs %d", len(got.Cliques), len(want.Cliques))
	}
}

// TestResumeRerunsBlockWithOtherMembership: a done record whose membership
// digest is not the re-grown block's is another block's result, whatever
// its plan index says. That block runs again rather than being served from
// the record.
func TestResumeRerunsBlockWithOtherMembership(t *testing.T) {
	g := gen.HolmeKim(400, 5, 0.7, 29)
	opts := Options{BlockSize: 24}
	want, err := FindMaxCliques(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp := openCheckpoint(t, dir, g, opts)
	runOpts := opts
	runOpts.Checkpoint = cp
	runOpts.Executor = &flakyExecutor{inner: &LocalExecutor{Parallelism: 1}, budget: 3}
	if _, err := FindMaxCliques(g, runOpts); !errors.Is(err, errInjected) {
		cp.Close()
		t.Fatalf("interrupted session: err %v, want injected failure", err)
	}
	cp.Close()

	// Block 1's record is superseded by one for other members, whose
	// cliques are not this graph's.
	cp = openCheckpoint(t, dir, g, opts)
	id, other := runlog.BlockID{Level: 0, Plan: 1}, uint64(0xbad)
	if _, served := cp.BlockDispatched(id, other); served {
		t.Fatal("a done record was served to other members")
	}
	bogus := family.Of([][]int32{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}).Window()
	if err := cp.BlockDone(id, other, bogus); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp = openCheckpoint(t, dir, g, opts)
	defer cp.Close()
	exec := &recordingExecutor{inner: LocalExecutor{Parallelism: 2}}
	runOpts = opts
	runOpts.Checkpoint, runOpts.Executor = cp, exec
	got, err := FindMaxCliques(g, runOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Cliques, got.Cliques) {
		t.Fatalf("the resume served another block's record: %d cliques, want %d", len(got.Cliques), len(want.Cliques))
	}
	if got.Stats.ResumedBlocks != 2 || !slices.Contains(exec.ids, id) {
		t.Fatalf("ResumedBlocks = %d with block 1 run %v, want blocks 0 and 2 served and block 1 run", got.Stats.ResumedBlocks, slices.Contains(exec.ids, id))
	}
}

// recordingExecutor runs blocks on a LocalExecutor and records the ID of
// every block it ran rather than served from the checkpoint.
type recordingExecutor struct {
	inner LocalExecutor
	mu    sync.Mutex
	ids   []runlog.BlockID
}

func (e *recordingExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	return e.inner.Analyze(ctx, g, plan, rule, level, recorder{obs, e})
}

type recorder struct {
	runlog.BatchObserver
	e *recordingExecutor
}

func (r recorder) BlockDispatched(id runlog.BlockID, member uint64) (family.Window, bool) {
	w, served := r.BatchObserver.BlockDispatched(id, member)
	if !served {
		r.e.mu.Lock()
		r.e.ids = append(r.e.ids, id)
		r.e.mu.Unlock()
	}
	return w, served
}

// TestResumeRegrowsLevelWithCorruptFrame: with one frame of level 0's log
// corrupted, that level is no longer served whole — it is planned again,
// each block served by its membership digest but the one whose frame no
// longer verifies, which runs again, and the plan checked at the seal
// against the journal's count and digest; the levels above are still served
// without planning.
func TestResumeRegrowsLevelWithCorruptFrame(t *testing.T) {
	g := gen.HolmeKim(400, 5, 0.7, 29)
	opts := Options{BlockSize: 24}
	dir := t.TempDir()
	cpOpts := opts
	cpOpts.Checkpoint = openCheckpoint(t, dir, g, opts)
	first, err := FindMaxCliques(g, cpOpts)
	if err != nil {
		t.Fatal(err)
	}
	cpOpts.Checkpoint.Close()
	if len(first.Stats.Levels) < 2 || first.Stats.Levels[0].Blocks < 2 {
		t.Fatalf("want a multi-block level 0 under a hub level, got %+v", first.Stats.Levels)
	}

	// The last byte of level 0's log is the payload of its last frame.
	logPath := filepath.Join(dir, "L000.mcel")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x55
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	met := telemetry.NewEngine()
	cp, err := runlog.Open(dir, CheckpointIdentity(g, opts), runlog.Options{FS: faultfs.Unsynced(nil), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	exec := &recordingExecutor{inner: LocalExecutor{Parallelism: 1}}
	resOpts := opts
	resOpts.Checkpoint, resOpts.Executor, resOpts.Metrics = cp, exec, met
	resumed, err := FindMaxCliques(g, resOpts)
	cp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Cliques, resumed.Cliques) {
		t.Fatalf("resume changed the cliques or their order: %d vs %d", len(resumed.Cliques), len(first.Cliques))
	}
	if len(exec.ids) != 1 || exec.ids[0].Level != 0 {
		t.Fatalf("resume ran blocks %v, want exactly the one level-0 block whose frame was corrupted", exec.ids)
	}
	total := 0
	for _, lvl := range first.Stats.Levels {
		total += lvl.Blocks
	}
	if resumed.Stats.ResumedBlocks != total-1 {
		t.Fatalf("ResumedBlocks = %d, want all %d but the corrupted one", resumed.Stats.ResumedBlocks, total)
	}
	if n, want := met.Snapshot().BlocksBuilt, int64(first.Stats.Levels[0].Blocks); n != want {
		t.Fatalf("resume built %d blocks, want level 0's %d and no other level's", n, want)
	}
	if got, want := resumed.Stats.Levels[0], first.Stats.Levels[0]; got.Border != want.Border || got.Visited != want.Visited {
		t.Fatalf("re-grown level 0 reports %+v, first run %+v", got, want)
	}
}

// TestResumeRefusesFlippedPlan: a journal that sealed level 0 with a plan
// of the same block count as this run's but one node in another role is
// refused by its plan digest at the re-grown level's seal rather than
// merged.
func TestResumeRefusesFlippedPlan(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 31)
	opts := Options{BlockSize: 24}
	m := resolveBlockSize(g.MaxDegree(), opts)
	feasible, _ := decomp.Cut(g, m)
	blocks := decomp.Grow(g, feasible, m, opts.Block)
	flip := -1
	for i := range blocks {
		if len(blocks[i].Border) > 0 {
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatal("no block with a border node")
	}
	b := &blocks[flip]
	b.Visited = append(slices.Clone(b.Visited), b.Border[0])
	slices.Sort(b.Visited)
	b.Border = b.Border[1:]

	dir := t.TempDir()
	cp := openCheckpoint(t, dir, g, opts)
	if err := cp.SealLevel(0, len(blocks), sealedPlan(blocks).Digest()); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp = openCheckpoint(t, dir, g, opts)
	defer cp.Close()
	runOpts := opts
	runOpts.Checkpoint = cp
	if _, err := FindMaxCliques(g, runOpts); !errors.Is(err, runlog.ErrIdentityMismatch) {
		t.Fatalf("resume over a plan with one flipped role: err %v, want ErrIdentityMismatch", err)
	}
}

// forbiddenExecutor fails the test if a resumed run dispatches anything.
type forbiddenExecutor struct{}

func (forbiddenExecutor) Analyze(context.Context, *graph.Graph, *decomp.Plan, dtree.Rule, int, runlog.BatchObserver) ([]family.Window, error) {
	return nil, errors.New("executor invoked on a fully-journaled resume")
}

// flakyExecutor wraps a LocalExecutor and injects a deterministic crash
// after a budget of block completions — the stand-in for a coordinator
// dying mid-run: the block past the budget fails before the checkpoint
// hears of it. With one worker the failure point is exact.
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

func (f *flakyExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	return f.inner.Analyze(ctx, g, plan, rule, level, flakyObserver{obs, f})
}

type flakyObserver struct {
	runlog.BatchObserver
	f *flakyExecutor
}

func (o flakyObserver) BlockDone(id runlog.BlockID, member uint64, cliques family.Window) error {
	if !o.f.take() {
		return errInjected
	}
	return o.BatchObserver.BlockDone(id, member, cliques)
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
