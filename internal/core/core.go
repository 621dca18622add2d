// Package core orchestrates FIND-MAX-CLIQUES (paper Algorithm 1), the
// recursive two-level decomposition that enumerates every maximal clique of
// a network while keeping each unit of work inside a block of at most m
// nodes:
//
//  1. CUT splits the nodes into feasible and hub nodes (first level);
//  2. BLOCKS partitions the feasible nodes into dense blocks (second level);
//  3. BLOCK-ANALYSIS enumerates each block's cliques with the combo chosen
//     by the decision tree, in parallel or on a remote cluster (Executor);
//  4. the whole procedure recurses on the subgraph induced by the hubs;
//  5. hub-side cliques contained in feasible-side cliques are filtered out
//     (Lemma 1), making the union exactly the maximal cliques of the input.
//
// Theorem 1 guarantees the recursion empties whenever m exceeds the
// network's degeneracy; for smaller m the recursion can stall on the
// (m+1)-core, in which case the engine enumerates that terminal core
// directly (recorded in Stats.CoreFallback) so completeness is never lost.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mce/internal/bitset"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/family"
	"mce/internal/filter"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// Executor runs one level's blocks from plan to cliques. blocks are as
// decomp.Grow planned them over g — membership only — and the goroutine that
// takes a block does the rest: it induces the block's subgraph from g into
// its own scratch (decomp.Materialiser), asks sel for the combo, analyses or
// ships the block and lets the subgraph go, so a level's subgraphs are never
// all resident and the shared plan is never written. A block that already
// carries its Graph is taken as it is (g may then be nil). The return value
// holds the cliques of each block (global node IDs), indexed like blocks:
// each a window into a family — the analysing worker's, or the one a remote
// answer was decoded into — that becomes the caller's with the return
// (package family has the ownership rule). Cancelling ctx stops the batch —
// work already shipped to remote workers included — and fails the call with
// ctx.Err().
//
// ids and obs are nil for plain batches. On a checkpointing run
// (Options.Checkpoint) ids[i] is blocks[i]'s stable identity in the run
// plan and obs is told the moment each block is dispatched and the moment
// its result is complete, so a coordinator killed mid-batch loses at most
// the blocks still in flight. Implementations: LocalExecutor (in-process
// pool) and cluster.Client (TCP workers).
type Executor interface {
	Analyze(ctx context.Context, g *graph.Graph, blocks []decomp.Block, sel Selector, ids []runlog.BlockID, obs runlog.BatchObserver) ([]family.Window, error)
}

// Selector picks the data-structure/algorithm combination for one block
// from its induced subgraph. Executors call it from several goroutines at
// once; s is the calling goroutine's measuring scratch.
type Selector = func(g *graph.Graph, s *kcore.Scratch) mcealg.Combo

// FixedSelector picks c for every block, as it is.
func FixedSelector(c mcealg.Combo) Selector {
	return func(*graph.Graph, *kcore.Scratch) mcealg.Combo { return c }
}

// Options configures FindMaxCliques.
type Options struct {
	// BlockSize is m, the maximum number of nodes per block. If 0, it is
	// derived from BlockRatio.
	BlockSize int
	// BlockRatio sets m = ceil(ratio × max degree) when BlockSize is 0,
	// matching the m/d parameterisation of the paper's experiments
	// (§6.2 uses ratios 0.9 … 0.1). If both are 0, ratio 0.5 is used —
	// the saddle point the paper identifies in Figure 8.
	BlockRatio float64
	// FixedCombo, when non-nil, bypasses the decision tree and uses one
	// combo everywhere (the paper's fixed-combination baselines, Figure 4).
	FixedCombo *mcealg.Combo
	// Block tunes the greedy second-level decomposition.
	Block decomp.Options
	// Executor runs block batches; nil means a LocalExecutor with
	// Parallelism workers.
	Executor Executor
	// Parallelism is the local worker count when Executor is nil;
	// 0 means GOMAXPROCS.
	Parallelism int
	// IntraBlockParallelism is the work-stealing worker count inside a
	// single block's enumeration (and the terminal core's): when > 1, the
	// combo selector upgrades BitSets picks on large blocks to
	// BitSetsParallel, so one dense block no longer serializes a run. It
	// multiplies with Parallelism (each block worker spawns its own pool),
	// so the useful product is about GOMAXPROCS. Output — cliques and their
	// order — is identical at every setting; 0 or 1 keeps the sequential
	// recursion.
	IntraBlockParallelism int
	// MaxLevels caps the recursion depth as a safety net; 0 means no cap.
	// The cap triggers the same direct-core fallback as a stalled
	// recursion, so results stay complete.
	MaxLevels int
	// Metrics, when non-nil, receives live telemetry from every phase of
	// the run (blocks, combo picks, per-block timings, filter time, and —
	// through the executor — queue depth and algorithm counters). Nil
	// disables telemetry entirely: every instrumentation site is behind a
	// nil-check and the block-analysis hot loop allocates nothing extra.
	Metrics *telemetry.Engine
	// Checkpoint, when non-nil, makes the run crash-safe: every level's
	// block plan and every block completion is journaled, block results are
	// persisted in per-block segments, and a run restarted against the same
	// checkpoint directory loads completed blocks from disk instead of
	// re-analysing them. The checkpoint must have been opened with the
	// identity CheckpointIdentity reports for this (graph, options) pair.
	Checkpoint *runlog.Checkpoint
	// MemoryBudget is a heap budget in bytes for the local executor (when
	// Executor is nil): while the process heap is above it, block dispatch
	// pauses instead of buffering more results toward an OOM kill. One
	// block always stays in flight, so the run degrades to serial
	// execution, never deadlocks. 0 disables the guard.
	MemoryBudget int64
}

// LevelStats records one recursion level of the first-level decomposition.
type LevelStats struct {
	// Nodes and Edges describe the graph at this level.
	Nodes, Edges int
	// Feasible and Hubs count the CUT partition at this level.
	Feasible, Hubs int
	// Blocks is the number of second-level blocks.
	Blocks int
	// Kernel, Border and Visited sum the three node classes of Algorithm 3
	// across this level's blocks. Kernel always equals Feasible (every
	// feasible node is kernel in exactly one block); Border and Visited
	// measure the duplication the bounded-size decomposition pays.
	Kernel, Border, Visited int
	// Cliques counts the cliques found from this level's blocks (before
	// higher levels' results are filtered against lower ones).
	Cliques int
	// Members, Arenas and ArenaBytes say how that family was held: its
	// members over all cliques, the number of flat arenas (package family:
	// one per local worker, one per remote answer, one per resumed level)
	// and the heap bytes they occupy. A level streamed clique by clique (a
	// terminal core under Stream) reports none.
	Members, Arenas int
	ArenaBytes      int64
	// Decomp and Analysis measure the wall time of the two phases: Decomp
	// is what runs on the coordinator's goroutine before any worker sees a
	// block, CutTime + BlocksTime; Analysis is the executor's wall, which
	// includes inducing and selecting on the workers.
	Decomp, Analysis time.Duration
	// CutTime is CUT (Algorithm 2); BlocksTime is the serial grow of BLOCKS
	// (Algorithm 3: membership only, no induced subgraph).
	CutTime, BlocksTime time.Duration
	// InduceTime and SelectTime sum, over the executor's goroutines, the
	// time spent inducing block subgraphs and choosing combos (with the
	// features the choice measures). They are CPU sums inside Analysis, not
	// wall, and are taken only when the run has a telemetry engine
	// (Options.Metrics); zero otherwise.
	InduceTime, SelectTime time.Duration
}

// Stats aggregates a FindMaxCliques run.
type Stats struct {
	// BlockSize is the m actually used.
	BlockSize int
	// MaxDegree is the input graph's maximum degree (the d of m/d).
	MaxDegree int
	// Levels holds one entry per recursion level, outermost first. Its
	// length is the paper's "number of iterations of the first-level
	// decomposition".
	Levels []LevelStats
	// FilterTime is the total time spent in the Lemma 1 filter.
	FilterTime time.Duration
	// CoreFallback reports that the recursion stopped making progress (or
	// hit MaxLevels) and the terminal core was enumerated directly.
	CoreFallback bool
	// TotalCliques is the number of maximal cliques returned.
	TotalCliques int
	// HubCliques is the number of returned cliques that were discovered at
	// recursion level ≥ 1, i.e. cliques made of hub nodes only — the
	// cliques a hub-neglecting decomposition would lose (Figures 9–11).
	HubCliques int
	// ResumedBlocks counts blocks whose cliques were loaded from the
	// checkpoint's segments instead of re-analysed — non-zero only when the
	// run resumed prior state (Options.Checkpoint).
	ResumedBlocks int
	// SkippedBlocks counts blocks abandoned as poison tasks under
	// skip-poison mode (cluster.ClientOptions.SkipPoisonTasks). Non-zero
	// means the clique set is explicitly incomplete; callers must surface
	// it, and mcefind exits non-zero.
	SkippedBlocks int
	// CheckpointDegraded reports that a checkpoint write failure (e.g. a
	// full disk) disabled checkpointing mid-run: the results are complete
	// and correct, but the journal records only the prefix written before
	// the failure, so a crash would resume from there.
	CheckpointDegraded bool
	// Telemetry is the final metrics snapshot of the run when it was
	// started with a telemetry engine (Options.Metrics, or the mce
	// package's WithTelemetryEngine option); nil otherwise.
	Telemetry *telemetry.Snapshot
}

// Result is the outcome of FindMaxCliques.
type Result struct {
	// Cliques holds every maximal clique of the input graph, each sorted
	// ascending, in deterministic order. Each is a view into the arena of
	// the level that found it; package family states what that means for a
	// holder (in place yes, append copies, one clique retains its arena).
	Cliques [][]int32
	// Level[i] is the recursion depth at which Cliques[i] was found:
	// 0 for cliques containing a feasible node of the original graph,
	// k ≥ 1 for cliques found k levels into the hub recursion (all their
	// nodes are hubs at levels 0..k-1).
	Level []int
	// Stats describes the run.
	Stats Stats
}

// LocalExecutor runs block analyses on a bounded in-process worker pool.
type LocalExecutor struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// Metrics, when non-nil, receives per-block telemetry: queue depth,
	// induce and select time, combo picks, per-combo timings and the merged
	// mcealg recursion counters. Nil keeps the worker loop allocation-free
	// and clock-free.
	Metrics *telemetry.Engine
	// MemoryBudget is a heap budget in bytes: while the process heap is
	// above it, workers pause before starting the next block instead of
	// accumulating more results toward an OOM kill (one worker is always
	// admitted, so progress is guaranteed). 0 disables the guard.
	MemoryBudget int64
	// IntraBlockParallelism is the per-block work-stealing width handed to
	// mcealg for BitSetsParallel combos; see Options.IntraBlockParallelism.
	// The pool's split gate is wired to the executor's memory guard, so
	// stealable-subproblem growth pauses with the same budget that paces
	// block dispatch.
	IntraBlockParallelism int
}

// AnalyzeBlocks is AnalyzeBlocksContext without cancellation.
func (e *LocalExecutor) AnalyzeBlocks(blocks []decomp.Block, combo mcealg.Combo) ([]family.Window, error) {
	return e.AnalyzeBlocksContext(context.Background(), blocks, combo)
}

// AnalyzeBlocksContext is Analyze for a plain batch of induced blocks under
// one combo (no level graph, no block IDs, no observer).
func (e *LocalExecutor) AnalyzeBlocksContext(ctx context.Context, blocks []decomp.Block, combo mcealg.Combo) ([]family.Window, error) {
	return e.Analyze(ctx, nil, blocks, FixedSelector(combo), nil, nil)
}

// Analyze implements Executor. Workers claim the next block index from a
// shared counter — the order of claims is the order of blocks — and each
// runs materialise → select → analyse on its own scratch, the kernel's emit
// appending to the worker's own family. Cancellation stops the pool from
// starting new blocks (blocks already being analysed run to completion —
// block analysis has no preemption points) and the call returns ctx.Err().
// With an observer, each block's completion is reported as it happens, so a
// checkpointing run can make it durable before the batch finishes.
//
//mce:hotpath block-analysis worker pool
func (e *LocalExecutor) Analyze(ctx context.Context, g *graph.Graph, blocks []decomp.Block, sel Selector, ids []runlog.BlockID, obs runlog.BatchObserver) ([]family.Window, error) {
	if obs != nil && len(ids) != len(blocks) {
		return nil, arityMismatch(len(blocks), len(ids))
	}
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	out := make([]family.Window, len(blocks))
	if len(blocks) == 0 {
		return out, nil
	}
	var (
		wg       sync.WaitGroup //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		mu       sync.Mutex     //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		next     atomic.Int64   //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		firstErr error
	)
	met := e.Metrics
	if met != nil {
		met.QueueDepth.Add(int64(len(blocks)))
	}
	guard := resguard.New(e.MemoryBudget, met)
	// Intra-block pools split subtrees into heap-held tasks; gating the
	// splits on the same guard keeps deque growth inside the budget. The
	// method value is safe on a nil guard (unlimited budget → never over).
	par := mcealg.Par{Workers: e.IntraBlockParallelism, SplitGate: guard.OverBudget}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The materialiser, the analyzer and ins are per-worker scratch:
			// the induced subgraph, adjacency rows and recursion frames are
			// reused from block to block, and the recursion counts
			// accumulate without atomics and merge into the engine once per
			// block. fam is the worker's output: every block it analyses
			// appends there and is handed back as a window.
			mat := decomp.NewMaterialiser(g)
			an := new(decomp.Analyzer)
			fam := new(family.Family)
			emit := fam.Append
			var ins *telemetry.BlockInstr
			if met != nil {
				ins = &telemetry.BlockInstr{}
			}
			for {
				i := int(next.Add(1)) - 1 // claim the next block
				if i >= len(blocks) {
					return
				}
				if met != nil {
					met.QueueDepth.Add(-1)
				}
				if ctx.Err() != nil {
					continue // drain the queue without analysing
				}
				// Memory guard: over budget, workers pause here instead of
				// piling more clique sets into the heap. ctx cancellation
				// releases the wait (the loop then drains without analysing).
				guard.Enter(ctx.Done())
				if ctx.Err() != nil {
					guard.Exit()
					continue
				}
				if obs != nil {
					obs.BlockDispatched(ids[i])
				}
				var t0 time.Time
				if met != nil {
					met.TasksInFlight.Add(1)
					t0 = time.Now()
				}
				blk := mat.Materialise(&blocks[i])
				if met != nil {
					t0 = lap(&met.InduceNs, t0)
				}
				combo := sel(blk.Graph, &mat.Features)
				if met != nil {
					t0 = lap(&met.SelectNs, t0)
					met.ComboPicked(combo.Index(), combo.Label())
				}
				first := fam.Len()
				err := an.Analyze(blk, combo, emit, ins, par)
				cliques := family.Window{F: fam, First: first, Count: fam.Len() - first}
				if met != nil {
					met.ComboAnalyzed(combo.Index(), combo.Label(), time.Since(t0))
					met.MergeBlockInstr(ins)
					met.TasksInFlight.Add(-1)
				}
				if err == nil && obs != nil {
					// Durability before acknowledgement: the block only
					// counts once its cliques are journaled.
					err = obs.BlockDone(ids[i], cliques)
				}
				guard.Exit()
				if err != nil {
					fam.Truncate(first)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				out[i] = cliques
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// lap adds the time since t0 to c and returns the new lap's start.
func lap(c *telemetry.Counter, t0 time.Time) time.Time {
	now := time.Now()
	c.Add(int64(now.Sub(t0)))
	return now
}

// arityMismatch formats the length errors of Analyze. It is a separate,
// never-inlined function so the fmt machinery and its boxed arguments stay
// off the hot path: Analyze is a hot-path root and a mismatch fires at most
// once per batch.
//
//mce:coldpath error formatting, at most once per batch
//go:noinline
func arityMismatch(blocks, ids int) error {
	return fmt.Errorf("core: %d blocks but %d block IDs", blocks, ids)
}

// ErrNoNodes is returned for a graph with no nodes at all; the empty graph
// has no maximal cliques, but asking is almost always a caller bug.
var ErrNoNodes = errors.New("core: graph has no nodes")

// errCheckpointStream refuses checkpointed streaming; see StreamContext.
var errCheckpointStream = errors.New("core: checkpointing is not supported with streaming enumeration (a resume would re-emit cliques the consumer already saw); use FindMaxCliques or drop the checkpoint")

// FindMaxCliques enumerates every maximal clique of g — Algorithm 1.
func FindMaxCliques(g *graph.Graph, opts Options) (*Result, error) {
	return FindMaxCliquesContext(context.Background(), g, opts)
}

// FindMaxCliquesContext is FindMaxCliques with cancellation: ctx is
// checked between recursion levels and handed to the executor, so
// cancelling stops an in-flight distributed run rather than waiting for
// the current batch to finish.
func FindMaxCliquesContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	// The sink adopts the windows it is handed — a level's arenas move into
	// the result, nothing is copied; survivors of the hub-side filter arrive
	// one by one and rejoin their neighbours here — and the result's two
	// slices are built once, at their exact size, when the recursion is back.
	type adopted struct {
		family.Window
		level int
	}
	var kept []adopted
	stats, err := enumerate(ctx, g, opts, true, func(w family.Window, level int) {
		if n := len(kept) - 1; n >= 0 && kept[n].level == level && kept[n].F == w.F && kept[n].First+kept[n].Count == w.First {
			kept[n].Count += w.Count
			return
		}
		kept = append(kept, adopted{w, level})
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Cliques: make([][]int32, 0, stats.TotalCliques),
		Level:   make([]int, 0, stats.TotalCliques),
		Stats:   *stats,
	}
	for _, k := range kept {
		res.Cliques = k.Views(res.Cliques)
		for i := 0; i < k.Count; i++ {
			res.Level = append(res.Level, k.level)
		}
	}
	return res, nil
}

// sink receives the maximal cliques of the level that owns them as a window
// — ascending, in that level's node IDs, in emission order — with the
// recursion depth they were found at. Who may keep what is package family's
// ownership rule: a collecting sink (run.collect) adopts the window, any
// other is done with it when the call returns.
type sink func(w family.Window, level int)

// run is what every recursion level of one FIND-MAX-CLIQUES run shares.
type run struct {
	opts  Options
	m     int
	sel   Selector
	exec  Executor
	stats *Stats
	// collect says the sink adopts the windows it is handed
	// (FindMaxCliques); otherwise it is done with each when its call
	// returns (Stream) and a level that can stream clique by clique does.
	collect bool
}

// enumerate drives Algorithm 1 over g and hands every maximal clique to
// out, in the engine's deterministic order. It is the whole engine behind
// both FindMaxCliquesContext (a collecting sink) and StreamContext (the
// caller's emit).
func enumerate(ctx context.Context, g *graph.Graph, opts Options, collect bool, out sink) (*Stats, error) {
	if g.N() == 0 {
		return nil, ErrNoNodes
	}
	maxDeg := g.MaxDegree()
	m := resolveBlockSize(maxDeg, opts)
	r := &run{
		opts:  opts,
		m:     m,
		sel:   selector(opts),
		exec:  opts.Executor,
		stats: &Stats{BlockSize: m, MaxDegree: maxDeg},

		collect: collect,
	}
	if r.exec == nil {
		r.exec = &LocalExecutor{Parallelism: opts.Parallelism, Metrics: opts.Metrics, MemoryBudget: opts.MemoryBudget, IntraBlockParallelism: opts.IntraBlockParallelism}
	}
	err := r.level(ctx, g, 0, func(w family.Window, level int) {
		r.stats.TotalCliques += w.Count
		if level >= 1 {
			r.stats.HubCliques += w.Count
		}
		out(w, level)
	})
	if err != nil {
		return nil, err
	}
	if cp := opts.Checkpoint; cp != nil {
		if err := cp.FinishRun(); err != nil {
			return nil, err
		}
		r.stats.ResumedBlocks = int(cp.SkippedBlocks())
		r.stats.CheckpointDegraded = cp.Degraded()
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		r.stats.Telemetry = &snap
	}
	return r.stats, nil
}

// resolveBlockSize resolves m from the options exactly as the engine will
// use it, so the checkpoint identity and the run agree.
func resolveBlockSize(maxDeg int, opts Options) int {
	m := opts.BlockSize
	if m <= 0 {
		ratio := opts.BlockRatio
		if ratio <= 0 {
			ratio = 0.5
		}
		m = int(ratio*float64(maxDeg) + 0.999)
	}
	if m < 2 {
		m = 2
	}
	return m
}

// CheckpointIdentity computes the identity a checkpoint directory for this
// (graph, options) pair must carry: the graph digest plus a digest of every
// option that shapes the block plan or the result partitioning — the
// resolved m, the second-level decomposition tuning, and the recursion cap.
// Transport, scheduling and filtering options are excluded: they change how
// blocks run, never which blocks exist or what each produces.
func CheckpointIdentity(g *graph.Graph, opts Options) runlog.Identity {
	m := resolveBlockSize(g.MaxDegree(), opts)
	minAdj := opts.Block.MinAdjacency
	if minAdj < 1 {
		minAdj = 1
	}
	fields := []uint64{
		uint64(m),
		uint64(minAdj),
		uint64(opts.Block.Order),
		uint64(opts.Block.Seed),
		uint64(opts.MaxLevels),
	}
	return runlog.Identity{
		Graph:   runlog.GraphDigest(g),
		Options: runlog.OptionsDigest(fields...),
	}
}

// parallelMinBlockNodes is the smallest block worth the intra-block pool:
// below it the pool-spawn and merge overhead beats any fan-out gain, so the
// selector leaves small blocks on the sequential BitSets path.
const parallelMinBlockNodes = 128

// selector builds the per-block combo chooser from the options. With
// IntraBlockParallelism > 1 the chosen combo is upgraded from BitSets to
// BitSetsParallel on blocks large enough to amortise the pool (the decision
// tree already steers dense blocks — where the parallel win lives — to
// BitSets). The upgrade never changes the emitted cliques or their order:
// both structures share the same rows and the same pivot arithmetic, and
// the parallel enumerator merges back into depth-first order.
//
//mce:hotpath per-block combo pick
func selector(opts Options) Selector {
	base := baseSelector(opts)
	if opts.IntraBlockParallelism <= 1 {
		return base
	}
	return func(g *graph.Graph, s *kcore.Scratch) mcealg.Combo {
		c := base(g, s)
		if c.Struct == mcealg.BitSets && g.N() >= parallelMinBlockNodes {
			c.Struct = mcealg.BitSetsParallel
		}
		return c
	}
}

//mce:hotpath per-block combo pick (decision tree)
func baseSelector(opts Options) Selector {
	if opts.FixedCombo != nil {
		c := *opts.FixedCombo
		return func(g *graph.Graph, _ *kcore.Scratch) mcealg.Combo { return c.Bounded(g.N()) }
	}
	tree := dtree.Published()
	return func(g *graph.Graph, s *kcore.Scratch) mcealg.Combo {
		return dtree.SafePredictGraph(tree, g, s)
	}
}

// level is the body of Algorithm 1 at recursion depth: it hands the maximal
// cliques of g (in g's node IDs) to out — the feasible side's first, block
// by block, then the hub side's survivors of the Lemma 1 filter.
func (r *run) level(ctx context.Context, g *graph.Graph, depth int, out sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts, met := &r.opts, r.opts.Metrics
	start := time.Now()
	feasible, hubs := decomp.Cut(g, r.m)
	cutTime := time.Since(start)
	if met != nil {
		met.CutNs.Add(int64(cutTime))
	}

	// Stalled recursion (Theorem 1 precondition violated: every remaining
	// node is a hub, so the induced subgraph equals g) or depth cap: the
	// remaining graph is the terminal (m+1)-core. Enumerate it directly —
	// Lemma 1 still applies with C2 = all maximal cliques of this subgraph.
	if len(feasible) == 0 || (opts.MaxLevels > 0 && depth >= opts.MaxLevels && len(hubs) > 0) {
		return r.terminalCore(g, depth, cutTime, out)
	}

	// BLOCKS, the serial half: which nodes each block holds and in which
	// role. Everything after it — induce, select, analyse — is a function of
	// (g, one block) and runs on the executor's goroutines.
	start = time.Now()
	blocks := decomp.Grow(g, feasible, r.m, opts.Block)
	blocksTime := time.Since(start)
	var kernelSum, borderSum, visitedSum int
	for i := range blocks {
		kernelSum += len(blocks[i].Kernel)
		borderSum += len(blocks[i].Border)
		visitedSum += len(blocks[i].Visited)
	}
	var induceNs, selectNs int64
	if met != nil {
		met.BlocksBuilt.Add(int64(len(blocks)))
		met.KernelNodes.Add(int64(kernelSum))
		met.BorderNodes.Add(int64(borderSum))
		met.VisitedNodes.Add(int64(visitedSum))
		met.BlocksNs.Add(int64(blocksTime))
		induceNs, selectNs = met.InduceNs.Load(), met.SelectNs.Load()
	}

	start = time.Now()
	var perBlock []family.Window
	var err error
	if cp := opts.Checkpoint; cp != nil {
		perBlock, err = r.analyzeCheckpointed(ctx, cp, g, blocks, depth)
	} else {
		perBlock, err = r.exec.Analyze(ctx, g, blocks, r.sel, nil, nil)
	}
	if err != nil {
		return err
	}
	ls := LevelStats{
		Nodes: g.N(), Edges: g.M(),
		Feasible: len(feasible), Hubs: len(hubs),
		Blocks: len(blocks),
		Kernel: kernelSum, Border: borderSum, Visited: visitedSum,
		Decomp:  cutTime + blocksTime,
		CutTime: cutTime, BlocksTime: blocksTime,
	}
	arenas := map[*family.Family]struct{}{} // one per local worker, one per remote answer
	for _, w := range perBlock {
		if w.Count == 0 {
			continue
		}
		if _, seen := arenas[w.F]; !seen {
			arenas[w.F] = struct{}{}
			ls.held(w.F)
		}
		ls.Cliques += w.Count
		out(w, depth)
	}
	ls.Analysis = time.Since(start)
	if met != nil {
		ls.InduceTime = time.Duration(met.InduceNs.Load() - induceNs)
		ls.SelectTime = time.Duration(met.SelectNs.Load() - selectNs)
	}
	r.levelDone(ls)

	if len(hubs) == 0 {
		return nil
	}

	// Recursive call on the hub-induced subgraph (Algorithm 1, line 6). Its
	// cliques are translated to this level's IDs in place and filtered
	// against this level's feasible side (line 7) as they arrive. Lemma 1's
	// case analysis makes the filter an extension test: a clique that is
	// maximal among the hubs is non-maximal in g exactly when some feasible
	// node neighbours all its members, so no feasible-side clique has to
	// be retained for it.
	sub, orig := graph.Induced(g, hubs)
	feasSet := bitset.FromSlice(g.N(), feasible)
	isFeasible := func(v int32) bool { return feasSet.Has(v) }
	return r.level(ctx, sub, depth+1, func(w family.Window, level int) {
		for i := 0; i < w.Count; i++ {
			c := w.At(i)
			for j, v := range c {
				c[j] = orig[v] // stays ascending: orig is ascending
			}
			start := time.Now()
			drop := filter.Extensible(g, c, isFeasible)
			elapsed := time.Since(start)
			r.stats.FilterTime += elapsed
			if met != nil {
				met.FilterNs.Add(int64(elapsed))
			}
			if !drop {
				out(family.Window{F: w.F, First: w.First + i, Count: 1}, level)
			} else if met != nil {
				met.HubCliquesFiltered.Inc()
			}
		}
	})
}

// held records one of the arenas a level's cliques are held in.
func (ls *LevelStats) held(f *family.Family) {
	ls.Arenas++
	ls.Members += f.Members()
	ls.ArenaBytes += int64(f.ArenaBytes())
}

// levelDone records one completed recursion level.
func (r *run) levelDone(ls LevelStats) {
	r.stats.Levels = append(r.stats.Levels, ls)
	if met := r.opts.Metrics; met != nil {
		met.CliquesFound.Add(int64(ls.Cliques))
		met.FamilyMembers.Add(int64(ls.Members))
		met.FamilyArenaBytes.Add(ls.ArenaBytes)
		met.LevelsCompleted.Inc()
	}
}

// analyzeCheckpointed runs one level's batch against the checkpoint: the
// level's block plan is journaled (and validated against a resumed journal),
// blocks the journal records as done are served from the level's result log,
// and only the remainder is dispatched, each block handed to the checkpoint
// by the executor the moment it completes and durable by EndLevel. Results
// come back indexed like blocks, so resumed and fresh runs produce identical
// output; a block served from the log is never induced, and the checkpoint
// reads a level's log once, into one family.
func (r *run) analyzeCheckpointed(ctx context.Context, cp *runlog.Checkpoint, g *graph.Graph, blocks []decomp.Block, level int) ([]family.Window, error) {
	if err := cp.BeginLevel(level, len(blocks)); err != nil {
		return nil, err
	}
	perBlock := make([]family.Window, len(blocks))
	var pend []decomp.Block
	var ids []runlog.BlockID
	for i := range blocks {
		id := runlog.BlockID{Level: level, Plan: i}
		if cliques, ok := cp.DoneCliques(id); ok {
			perBlock[i] = cliques
			continue
		}
		if pend == nil { // sized on the first pending block: a full resume allocates neither
			pend = make([]decomp.Block, 0, len(blocks)-i)
			ids = make([]runlog.BlockID, 0, len(blocks)-i)
		}
		pend, ids = append(pend, blocks[i]), append(ids, id)
	}
	if len(pend) > 0 {
		results, err := r.exec.Analyze(ctx, g, pend, r.sel, ids, cp)
		if err != nil {
			return nil, err
		}
		for pos, id := range ids {
			perBlock[id.Plan] = results[pos]
		}
	}
	if err := cp.EndLevel(level); err != nil {
		return nil, err
	}
	return perBlock, nil
}

// terminalCore handles the terminal core directly with a single MCE run —
// a one-block level that bypasses the executor. This is exactly where
// intra-block parallelism matters most: the terminal hub core is one dense
// enumeration with no block-level parallelism to hide behind.
//
// Under a checkpoint the level is journaled like any other, so a resumed
// run loads the terminal core's cliques from the level's log too. The family
// is encoded for the log (in this level's IDs) before any of it is handed up
// — receivers up the recursion translate in place. A collecting run hands the
// core up as one window; a streaming one hands each clique up as the kernel
// emits it, from an arena of one, so nothing is buffered.
func (r *run) terminalCore(g *graph.Graph, depth int, cutTime time.Duration, out sink) error {
	cp, met := r.opts.Checkpoint, r.opts.Metrics
	start := time.Now()
	id := runlog.BlockID{Level: depth, Plan: 0}
	var core family.Window // the level's one block
	resumed := false
	if cp != nil {
		if err := cp.BeginLevel(depth, 1); err != nil {
			return err
		}
		core, resumed = cp.DoneCliques(id)
	}
	ls := LevelStats{Nodes: g.N(), Edges: g.M(), Hubs: g.N(), Decomp: cutTime, CutTime: cutTime}
	if !resumed {
		fam := new(family.Family)
		var scratch kcore.Scratch
		combo := r.sel(g, &scratch)
		if met != nil {
			met.ComboPicked(combo.Index(), combo.Label())
		}
		err := mcealg.EnumeratePar(g, combo, corePar(r.opts), func(c []int32) {
			fam.Append(c)
			if !r.collect {
				ls.Cliques++
				out(fam.Window(), depth)
				fam.Reset()
			}
		})
		if err != nil {
			return err
		}
		core = fam.Window()
		if cp != nil {
			if err := cp.BlockDone(id, core); err != nil {
				return err
			}
		}
	}
	if cp != nil {
		if err := cp.EndLevel(depth); err != nil {
			return err
		}
	}
	if core.Count > 0 {
		ls.Cliques = core.Count
		ls.held(core.F)
		out(core, depth)
	}
	r.stats.CoreFallback = true
	ls.Analysis = time.Since(start)
	r.levelDone(ls)
	return nil
}

// corePar is the Par for the terminal-core fallback, which runs on the
// coordinator goroutine rather than inside an executor: same worker width,
// with the split gate on a guard over the run's memory budget.
func corePar(opts Options) mcealg.Par {
	guard := resguard.New(opts.MemoryBudget, opts.Metrics)
	return mcealg.Par{Workers: opts.IntraBlockParallelism, SplitGate: guard.OverBudget}
}
