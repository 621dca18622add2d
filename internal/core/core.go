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
// (m+1)-core, where no node is feasible. The engine then cuts that level
// again at a block size every node fits (a small multiple of its maximum
// degree plus one), so the hub set is empty and the terminal level runs as
// an ordinary level — planned, dispatched, journaled and counted like any
// other — and the recursion ends there (recorded in Stats.CoreFallback), so
// completeness is never lost. Options.MaxLevels ends the recursion the same
// way.
package core

import (
	"context"
	"errors"
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
	"mce/internal/mcealg"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// Executor runs one level's blocks from plan to cliques. plan holds the
// blocks as decomp.GrowSeq plans them over g — membership only — and may
// still be growing: a block is published the moment it is planned, and the
// plan is sealed when the grower is done. Whatever takes a block does the
// rest: it induces the block's subgraph from g into its own scratch
// (decomp.Materialiser), asks rule for the combo, analyses the block and
// lets the subgraph go, so a level's subgraphs are never all resident and
// the shared plan is never written. A LocalExecutor's goroutines do this
// in-process; a cluster.Client ships each block's membership and rule to a
// worker that keeps g and does it there. A block that already carries its
// Graph is taken as it is by a LocalExecutor (g may then be nil). The
// return value holds the cliques of each block (global node IDs), indexed
// by plan position: each a window into a family — the analysing worker's,
// or the one a remote answer was decoded into — that becomes the caller's
// with the return (package family has the ownership rule). Cancelling ctx
// stops the batch — work already shipped to remote workers included — and
// fails the call with ctx.Err().
//
// level is the recursion depth of the plan: block i's stable identity in
// the run is runlog.BlockID{Level: level, Plan: i}. obs is nil for plain
// batches. On a checkpointing run (Options.Checkpoint) each block is offered
// to obs as it is taken, with its membership digest (decomp.Block.Digest):
// a block an earlier session finished is served from the checkpoint and not
// run; any other is journaled as dispatched, and obs is told the moment its
// result is complete, so a coordinator killed mid-batch loses at most the
// blocks still in flight. Implementations: LocalExecutor (in-process pool)
// and cluster.Client (TCP workers); both take each block as soon as it is
// planned.
type Executor interface {
	Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error)
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
	// 0 means GOMAXPROCS. Each level's blocks are grown on one more
	// goroutine beside the workers, which analyse a block as soon as it
	// is planned: that grower is the coordinator's own serial work moved
	// off the caller's goroutine, not an extra worker.
	Parallelism int
	// IntraBlockParallelism is the work-stealing worker count inside a
	// single block's enumeration: when > 1, the combo selector upgrades
	// BitSets picks on large blocks to BitSetsParallel, so one dense block
	// no longer serializes a run. It multiplies with Parallelism (each block
	// worker spawns its own pool), so the useful product is about
	// GOMAXPROCS. Output — cliques and their order — is identical at every
	// setting; 0 or 1 keeps the sequential recursion.
	IntraBlockParallelism int
	// MaxLevels caps the recursion depth as a safety net; 0 means no cap.
	// The level at the cap is cut again as a stalled level is (every node
	// feasible, no hubs), so the recursion ends there and results stay
	// complete.
	MaxLevels int
	// Metrics, when non-nil, receives live telemetry from every phase of
	// the run (blocks, combo picks, per-block timings, filter time, and —
	// through the executor — queue depth and algorithm counters). Nil
	// disables telemetry entirely: every engine method is a no-op on nil,
	// so the block-analysis hot loop reads no clock and allocates nothing
	// extra.
	Metrics *telemetry.Engine
	// Checkpoint, when non-nil, makes the run crash-safe: every level's
	// block plan and every block completion is journaled, block results are
	// appended to per-level logs, and a run restarted against the same
	// checkpoint directory loads completed blocks from disk instead of
	// re-analysing them — a level done whole without planning it again.
	// The checkpoint must have been opened with the identity
	// CheckpointIdentity reports for this (graph, options) pair.
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
	// Feasible and Hubs count the CUT partition at this level. The terminal
	// level of a stalled recursion (Stats.CoreFallback) is cut again at a
	// block size every node fits: it reports Feasible = Nodes, Hubs = 0 and
	// the real Blocks, Kernel, Border and Visited of that cut.
	Feasible, Hubs int
	// Blocks is the number of second-level blocks.
	Blocks int
	// Kernel, Border and Visited sum the three node classes of Algorithm 3
	// across this level's blocks. Kernel always equals Feasible (every
	// feasible node is kernel in exactly one block); Border and Visited
	// measure the duplication the bounded-size decomposition pays.
	//
	// A level a resumed checkpoint served whole from its log (every block
	// done in an earlier session) is not planned again: Blocks is the count
	// the journal recorded, Kernel is Feasible, and Border, Visited and
	// BlocksTime are 0.
	Kernel, Border, Visited int
	// Cliques counts the cliques found from this level's blocks (before
	// higher levels' results are filtered against lower ones).
	Cliques int
	// Members, Arenas and ArenaBytes say how that family was held: its
	// members over all cliques, the number of flat arenas (package family:
	// one per local worker, one per remote answer, one per resumed level)
	// and the heap bytes they occupy.
	Members, Arenas int
	ArenaBytes      int64
	// Decomp and Analysis measure the wall time of the two phases, and Wall
	// the whole level's (its hub recursion excluded). Decomp is CutTime +
	// BlocksTime. Analysis runs from the executor's first take of a block
	// to its return, and includes inducing and selecting on the workers.
	// Grow and analysis overlap: every executor takes each block the moment
	// the grower publishes it, checkpointed or not, so Decomp + Analysis
	// exceeds Wall by the overlap.
	Decomp, Analysis, Wall time.Duration
	// CutTime is CUT (Algorithm 2); BlocksTime is the serial grow of BLOCKS
	// (Algorithm 3: membership only, no induced subgraph), timed on the
	// grower's goroutine from its first block to the plan's seal.
	CutTime, BlocksTime time.Duration
	// InduceTime and SelectTime sum, over the executor's goroutines, the
	// time spent inducing block subgraphs and choosing combos (with the
	// features the choice measures). They are CPU sums inside Analysis, not
	// wall, and are taken only when the run has a telemetry engine
	// (Options.Metrics); zero otherwise, and zero on a cluster.Client,
	// whose workers induce and select on their own side.
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
	// CoreFallback reports that the recursion stopped making progress (no
	// node feasible) or hit MaxLevels, so its last level was cut again with
	// every node feasible and ended the recursion.
	CoreFallback bool
	// TotalCliques is the number of maximal cliques returned.
	TotalCliques int
	// HubCliques is the number of returned cliques that were discovered at
	// recursion level ≥ 1, i.e. cliques made of hub nodes only — the
	// cliques a hub-neglecting decomposition would lose (Figures 9–11).
	HubCliques int
	// ResumedBlocks counts blocks whose cliques were loaded from the
	// checkpoint's level logs instead of re-analysed — non-zero only when the
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
	// induce and select time, combo picks, per-combo timings and the
	// analyzer's mcealg recursion counts. Nil keeps the worker loop
	// allocation-free and clock-free.
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

// Analyze implements Executor. Workers claim the next block index from a
// shared counter — the order of claims is the order of the plan — wait for
// that block if the grower has not published it yet, and each runs
// materialise → select → analyse on its own scratch, the kernel writing
// each clique straight into the worker's own family. A plan still being
// grown is analysed as it grows; a worker that claims past the end of a
// sealed plan is done. Cancellation, or one block's failure, stops the pool from
// starting new blocks (blocks already being analysed run to completion —
// block analysis has no preemption points) and the call returns ctx.Err()
// or the first failure. With an observer, a worker offers each block it
// claims to the observer first and serves it from there when an earlier
// session finished it, and reports each completion as it happens, so a
// checkpointing run can make it durable before the batch finishes.
//
//mce:hotpath block-analysis worker pool
func (e *LocalExecutor) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, level int, obs runlog.BatchObserver) ([]family.Window, error) {
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Sealed before Len: a plan sealed between the two loads then still
	// caps the pool at its final length, never at a stale one.
	if plan.Sealed() {
		workers = min(workers, plan.Len())
	}
	var (
		wg       sync.WaitGroup //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		mu       sync.Mutex     //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		next     atomic.Int64   //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		stop     atomic.Bool    //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		queue    queueGauge     //lint:ignore hotalloc captured once per spawned worker, not per recursion node
		firstErr error
	)
	// done[w] is worker w's blocks with their plan positions, in the order
	// it claimed them; they are scattered into plan order once every worker
	// is done, while the plan's length is final.
	done := make([][]placed, workers)
	met := e.Metrics
	queue.met = met
	guard := resguard.New(e.MemoryBudget, met)
	// Intra-block pools split subtrees into heap-held tasks; gating the
	// splits on the same guard keeps deque growth inside the budget. The
	// method value is safe on a nil guard (unlimited budget → never over).
	par := mcealg.Par{Workers: e.IntraBlockParallelism, SplitGate: guard.OverBudget}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []placed
			defer func() { done[w] = mine }()
			// The materialiser and the analyzer are per-worker scratch: the
			// induced subgraph, adjacency rows and recursion frames are
			// reused from block to block, and the analyzer keeps the block's
			// recursion counts, added to the engine once per block. fam is
			// the worker's output: every block it analyses appends there and
			// is handed back as a window.
			mat := decomp.NewMaterialiser(g)
			an := new(decomp.Analyzer)
			fam := new(family.Family)
			for {
				i := int(next.Add(1)) - 1 // claim the next block
				b := plan.Block(i)        // waits while the grower is behind
				if b == nil {
					return
				}
				queue.claimed(plan.Len())
				if stop.Load() || ctx.Err() != nil {
					return
				}
				id, member := runlog.BlockID{Level: level, Plan: i}, uint64(0)
				if obs != nil {
					member = b.Digest()
					if served, ok := obs.BlockDispatched(id, member); ok {
						mine = append(mine, placed{i, served})
						continue
					}
				}
				// Memory guard: over budget, workers pause here instead of
				// piling more clique sets into the heap. ctx cancellation
				// releases the wait.
				guard.Enter(ctx.Done())
				if ctx.Err() != nil {
					guard.Exit()
					return
				}
				met.Move(telemetry.TasksInFlight, 1)
				t0 := met.Now()
				blk := mat.Materialise(b)
				t0 = met.Lap(telemetry.InduceNs, t0)
				combo := rule.Pick(blk.Graph, &mat.Features)
				t0 = met.Lap(telemetry.SelectNs, t0)
				met.ComboPicked(combo.Index())
				first := fam.Len()
				err := an.AnalyzeInto(blk, combo, fam, par)
				cliques := family.Window{F: fam, First: first, Count: fam.Len() - first}
				met.ComboAnalyzed(combo.Index(), met.Since(t0))
				nodes, pivots := an.Counts()
				met.Add(telemetry.RecursionNodes, nodes)
				met.Add(telemetry.PivotSelections, pivots)
				met.Move(telemetry.TasksInFlight, -1)
				if err == nil && obs != nil {
					// Durability before acknowledgement: the block only
					// counts once its cliques are journaled.
					err = obs.BlockDone(id, member, cliques)
				}
				guard.Exit()
				if err != nil {
					fam.Truncate(first)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				mine = append(mine, placed{i, cliques})
			}
		}()
	}
	wg.Wait()
	queue.drain(min(int(next.Load()), plan.Len()))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	n := plan.Len() // final: every worker saw the seal
	out := make([]family.Window, n)
	for _, mine := range done {
		for _, p := range mine {
			out[p.i] = p.w
		}
	}
	return out, nil
}

// placed is one analysed block's cliques and its position in the plan.
type placed struct {
	i int
	w family.Window
}

// queueGauge keeps telemetry's QueueDepth at the blocks published to the
// plan but not yet claimed by a worker. A nil engine makes it a no-op.
type queueGauge struct {
	met     *telemetry.Engine
	counted atomic.Int64 // blocks added to the gauge so far
}

// claimed records one claimed block; published is the plan's length as the
// claiming worker saw it, so the gauge first takes in any block published
// since the last claim. With telemetry off it returns at once: the
// bookkeeping is shared by the workers, and off costs no atomics.
func (q *queueGauge) claimed(published int) {
	if q.met == nil {
		return
	}
	for {
		c := q.counted.Load()
		if int64(published) <= c {
			break
		}
		if q.counted.CompareAndSwap(c, int64(published)) {
			q.met.Move(telemetry.QueueDepth, int64(published)-c)
			break
		}
	}
	q.met.Move(telemetry.QueueDepth, -1)
}

// drain takes back what the batch added and did not claim, so the gauge
// reads the same after the batch as before it; claims is the number of
// blocks claimed.
func (q *queueGauge) drain(claims int) {
	q.met.Move(telemetry.QueueDepth, int64(claims)-q.counted.Load())
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
	stats, err := enumerate(ctx, g, opts, func(w family.Window, level int) {
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
// ownership rule: FindMaxCliques's sink adopts the window, Stream's is done
// with it when the call returns.
type sink func(w family.Window, level int)

// run is what every recursion level of one FIND-MAX-CLIQUES run shares.
type run struct {
	opts  Options
	m     int
	rule  dtree.Rule
	exec  Executor
	stats *Stats
}

// enumerate drives Algorithm 1 over g and hands every maximal clique to
// out, in the engine's deterministic order. It is the whole engine behind
// both FindMaxCliquesContext (a collecting sink) and StreamContext (the
// caller's emit).
func enumerate(ctx context.Context, g *graph.Graph, opts Options, out sink) (*Stats, error) {
	if g.N() == 0 {
		return nil, ErrNoNodes
	}
	maxDeg := g.MaxDegree()
	m := resolveBlockSize(maxDeg, opts)
	r := &run{
		opts:  opts,
		m:     m,
		rule:  selectionRule(opts),
		exec:  opts.Executor,
		stats: &Stats{BlockSize: m, MaxDegree: maxDeg},
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

// terminalSlack sets the block size a stalled level is cut again at:
// terminalSlack × (Δ+1), Δ the level graph's maximum degree. Δ+1 is the
// smallest m at which every node is feasible; the slack lets Grow pack several
// closed neighbourhoods into one block, which on a ring lattice or K_{n,n} is
// several times faster than one neighbourhood per block (EXPERIMENTS.md, "The
// terminal core is an ordinary level").
const terminalSlack = 4

// selectionRule builds the per-block combo-selection rule from the
// options: the fixed combo when there is one, the published tree
// otherwise. With IntraBlockParallelism > 1 a BitSets pick on a block large
// enough to amortise the pool is upgraded to BitSetsParallel (the decision
// tree already steers dense blocks — where the parallel win lives — to
// BitSets).
func selectionRule(opts Options) dtree.Rule {
	r := dtree.Rule{Parallel: opts.IntraBlockParallelism > 1}
	if opts.FixedCombo != nil {
		r.Mode, r.Combo = dtree.RuleFixed, *opts.FixedCombo
	}
	return r
}

// level is the body of Algorithm 1 at recursion depth: it hands the maximal
// cliques of g (in g's node IDs) to out — the feasible side's first, block
// by block, then the hub side's survivors of the Lemma 1 filter.
func (r *run) level(ctx context.Context, g *graph.Graph, depth int, out sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts, met := &r.opts, r.opts.Metrics
	levelStart := time.Now()
	m := r.m
	feasible, hubs := decomp.Cut(g, m)
	// Stalled recursion (Theorem 1 precondition violated: every remaining
	// node is a hub, so the induced subgraph equals g) or depth cap: this is
	// the terminal level. It is cut again at a block size every node fits, so
	// the hub set is empty and the recursion ends here — Lemma 1 still
	// applies with C2 = all maximal cliques of this subgraph.
	if len(feasible) == 0 || (opts.MaxLevels > 0 && depth >= opts.MaxLevels && len(hubs) > 0) {
		m = terminalSlack * (g.MaxDegree() + 1)
		feasible, hubs = decomp.Cut(g, m)
		r.stats.CoreFallback = true
	}
	cutTime := time.Since(levelStart)
	met.Add(telemetry.CutNs, int64(cutTime))

	ls := LevelStats{
		Nodes: g.N(), Edges: g.M(),
		Feasible: len(feasible), Hubs: len(hubs),
		Decomp: cutTime, CutTime: cutTime,
	}
	induceNs, selectNs := met.Load(telemetry.InduceNs), met.Load(telemetry.SelectNs)
	var perBlock []family.Window
	served, err := false, error(nil)
	began := time.Now() // the analysis' start
	if cp := opts.Checkpoint; cp != nil {
		perBlock, served = cp.ServedLevel(depth)
	}
	if served {
		// An earlier session sealed this level: its cliques are served from
		// the level's log, and the plan is not grown again only to be
		// counted. Every feasible node was a kernel of one of its blocks.
		ls.Blocks, ls.Kernel = len(perBlock), len(feasible)
	} else {
		perBlock, began, err = r.growAndAnalyze(ctx, g, feasible, m, depth, &ls)
	}
	if err != nil {
		return err
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
	ls.Analysis = time.Since(began)
	ls.Wall = time.Since(levelStart)
	ls.InduceTime = time.Duration(met.Load(telemetry.InduceNs) - induceNs)
	ls.SelectTime = time.Duration(met.Load(telemetry.SelectNs) - selectNs)
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
			met.Add(telemetry.FilterNs, int64(elapsed))
			if !drop {
				out(family.Window{F: w.F, First: w.First + i, Count: 1}, level)
			} else {
				met.Inc(telemetry.HubCliquesFiltered)
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
	met := r.opts.Metrics
	met.Add(telemetry.CliquesFound, int64(ls.Cliques))
	met.Add(telemetry.FamilyMembers, int64(ls.Members))
	met.Add(telemetry.FamilyArenaBytes, ls.ArenaBytes)
	met.Inc(telemetry.LevelsCompleted)
}

// growAndAnalyze runs BLOCKS and BLOCK-ANALYSIS of one level. BLOCKS'
// serial half — which nodes each block holds and in which role — runs on a
// goroutine of its own and publishes each block into the level's plan the
// moment it is planned; everything after it — induce, select, analyse — is
// a function of (g, one block) and runs on the executor's goroutines, which
// start on the first block while the rest are still being grown. That is
// the one path of every level, checkpointed or not, local or distributed: on
// a checkpointing run the executor offers each block to the checkpoint as
// it takes it, and the level is sealed — its block count and plan digest
// journaled, or checked against the journal's — once every block is done,
// before any of its cliques is emitted. The grower stops early when ctx is
// cancelled or the executor returns first (a failed block), and is joined
// before this returns. began is when the executor first took a block, or
// now if it took none.
func (r *run) growAndAnalyze(ctx context.Context, g *graph.Graph, feasible []int32, m, depth int, ls *LevelStats) (perBlock []family.Window, began time.Time, err error) {
	met, cp := r.opts.Metrics, r.opts.Checkpoint
	plan := decomp.NewPlan(len(feasible))
	growCtx, stopGrow := context.WithCancel(ctx)
	var grew sync.WaitGroup
	grew.Add(1)
	go func() {
		defer grew.Done()
		defer plan.Seal()
		growStart := time.Now()
		stopped := growCtx.Done()
		decomp.GrowSeq(g, feasible, m, r.opts.Block)(func(b decomp.Block) bool {
			select {
			case <-stopped:
				return false
			default:
			}
			ls.Kernel += len(b.Kernel)
			ls.Border += len(b.Border)
			ls.Visited += len(b.Visited)
			plan.Append(b)
			return true
		})
		ls.BlocksTime = time.Since(growStart)
	}()
	var obs runlog.BatchObserver
	if cp != nil {
		obs = cp
	}
	perBlock, err = r.exec.Analyze(ctx, g, plan, r.rule, depth, obs)
	stopGrow()
	grew.Wait()
	if err == nil {
		err = ctx.Err() // a grower stopped by ctx sealed a plan that is not the level's
	}
	if err == nil && cp != nil {
		err = cp.SealLevel(depth, plan.Len(), plan.Digest())
	}
	began, ok := plan.Taken()
	if !ok { // no block was taken: the analysis had nothing to wait for
		began = time.Now()
	}
	ls.Blocks = plan.Len()
	ls.Decomp = ls.CutTime + ls.BlocksTime
	met.Add(telemetry.BlocksBuilt, int64(ls.Blocks))
	met.Add(telemetry.KernelNodes, int64(ls.Kernel))
	met.Add(telemetry.BorderNodes, int64(ls.Border))
	met.Add(telemetry.VisitedNodes, int64(ls.Visited))
	met.Add(telemetry.BlocksNs, int64(ls.BlocksTime))
	return perBlock, began, err
}
