// Package mce enumerates all maximal cliques of very large scale-free
// networks with the two-level distributed decomposition of Conte, De
// Virgilio, Maccioni, Patrignani and Torlone, "Finding All Maximal Cliques
// in Very Large Social Networks" (EDBT 2016).
//
// The engine splits the network into feasible nodes (whose neighbourhood
// fits a block of m nodes) and hub nodes (whose neighbourhood does not),
// partitions the feasible side into small dense blocks that are processed
// independently — locally in parallel or on remote TCP workers — and
// recurses on the hub-induced subgraph, so that no clique is lost no matter
// how small the blocks are. Per block, a decision tree picks the fastest of
// twelve Bron–Kerbosch-family algorithm/data-structure combinations.
//
// Quick start:
//
//	g, _, err := mce.Load("network.txt") // SNAP-style edge list
//	if err != nil { ... }
//	res, err := mce.Enumerate(g)
//	if err != nil { ... }
//	for _, clique := range res.Cliques { ... }
//
// Block size defaults to half the maximum degree (the m/d = 0.5 saddle
// point of the paper's Figure 8) and can be tuned with WithBlockSize or
// WithBlockRatio. WithWorkers distributes block analysis over mceworker
// processes.
package mce

import (
	"context"
	"fmt"
	"time"

	"mce/internal/cluster"
	"mce/internal/core"
	"mce/internal/gen"
	"mce/internal/gio"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// Graph is a simple undirected graph with dense int32 node IDs.
// Build one with NewBuilder, FromEdges or Load.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Edge is an undirected edge.
type Edge = graph.Edge

// LabelMap translates between external node labels and dense IDs.
type LabelMap = gio.LabelMap

// Stats describes a completed enumeration; see the field docs in
// internal/core.
type Stats = core.Stats

// Result is the outcome of Enumerate: every maximal clique (sorted node IDs,
// deterministic order), the recursion level each was found at (level ≥ 1
// means a clique made of hub nodes only), and run statistics. Cliques[i] is
// a view into an arena shared with the cliques found beside it: overwrite it
// in place or append to it (append copies) freely, but keeping one clique
// keeps its arena — copy it to keep it alone. internal/family has the rule.
type Result = core.Result

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a normalised graph (undirected, deduplicated, no self
// loops) with n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Load reads a graph from disk: whitespace-separated edge lists (SNAP
// style) by default, the paper's ⟨n1, e, n2⟩ triple format for ".triples"
// files. The LabelMap records how external labels map to dense IDs.
func Load(path string) (*Graph, *LabelMap, error) { return gio.LoadFile(path) }

// Save writes a graph to disk in the format selected by the extension,
// mirroring Load.
func Save(path string, g *Graph) error { return gio.SaveFile(path, g) }

// TelemetrySnapshot is a point-in-time view of the engine's metrics; see
// the field docs in internal/telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryEngine accumulates live metrics for a run. Obtain one with
// NewTelemetryEngine, pass it via WithTelemetryEngine, and snapshot it at
// any time — including from another goroutine while the run is in flight
// (e.g. an HTTP debug handler).
type TelemetryEngine = telemetry.Engine

// NewTelemetryEngine returns an empty telemetry engine.
func NewTelemetryEngine() *TelemetryEngine { return telemetry.NewEngine() }

// config collects the functional options.
type config struct {
	core           core.Options
	workers        []string
	cliOpts        cluster.ClientOptions
	report         func(DialReport)
	healthReport   func(HealthReport)
	checkpointDir  string
	checkpointWarn func(error)
	poisonReport   func([]PoisonVerdict)
}

// Option customises Enumerate.
type Option func(*config) error

// WithBlockSize fixes m, the maximum number of nodes per block.
func WithBlockSize(m int) Option {
	return func(c *config) error {
		if m < 2 {
			return fmt.Errorf("mce: block size %d is too small (need ≥ 2)", m)
		}
		c.core.BlockSize = m
		return nil
	}
}

// WithBlockRatio sets m as a fraction of the maximum degree, the m/d
// parameter of the paper's experiments (0 < ratio ≤ 1).
func WithBlockRatio(ratio float64) Option {
	return func(c *config) error {
		if ratio <= 0 || ratio > 1 {
			return fmt.Errorf("mce: block ratio %v out of (0, 1]", ratio)
		}
		c.core.BlockRatio = ratio
		return nil
	}
}

// WithParallelism bounds the local block-analysis workers (default:
// GOMAXPROCS).
func WithParallelism(workers int) Option {
	return func(c *config) error {
		if workers < 1 {
			return fmt.Errorf("mce: parallelism %d is not positive", workers)
		}
		c.core.Parallelism = workers
		return nil
	}
}

// WithIntraBlockParallelism sets the work-stealing worker count inside a
// single block's Bron–Kerbosch enumeration (and the terminal core's). With
// n > 1 the combo selector upgrades BitSets picks on large blocks to the
// BitSetsParallel execution mode, so one dense block — typically the
// terminal hub core — no longer serializes the run on a single goroutine.
// It composes multiplicatively with WithParallelism (each block worker
// spawns its own pool of n), so keep workers × n around GOMAXPROCS. The
// result — every clique and its position in the output — is bit-identical
// at every n; n = 1 keeps the sequential recursion.
func WithIntraBlockParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mce: intra-block parallelism %d is not positive", n)
		}
		c.core.IntraBlockParallelism = n
		return nil
	}
}

// WithAlgorithm bypasses the decision tree and uses one algorithm/structure
// combination for every block. Valid names are "BKPivot", "Tomita",
// "Eppstein", "XPivot" and "Matrix", "Lists", "BitSets".
func WithAlgorithm(algorithm, structure string) Option {
	return func(c *config) error {
		combo, err := ParseCombo(algorithm, structure)
		if err != nil {
			return err
		}
		c.core.FixedCombo = &combo
		return nil
	}
}

// WithWorkers distributes block analysis over mceworker processes at the
// given TCP addresses.
func WithWorkers(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("mce: WithWorkers needs at least one address")
		}
		c.workers = append([]string(nil), addrs...)
		return nil
	}
}

// WithTaskTimeout bounds each distributed task round trip: a worker that
// does not answer within d is retired and its block requeued elsewhere, so
// a hung worker cannot stall the run. The default (without this option)
// derives a generous envelope from the block size; a negative d disables
// deadlines entirely.
func WithTaskTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return fmt.Errorf("mce: task timeout 0 is ambiguous (omit the option for the derived default, pass negative to disable)")
		}
		c.cliOpts.TaskTimeout = d
		return nil
	}
}

// WithTaskRetries sets the per-block failure budget: a block with k failed
// attempts (transport failures or corrupt verdicts, on any connections) is
// declared a poison task and the run fails deterministically with
// diagnostics (cluster.PoisonTaskError) instead of cascading through the
// cluster. The default is 3; negative means unlimited retries.
func WithTaskRetries(k int) Option {
	return func(c *config) error {
		if k == 0 {
			return fmt.Errorf("mce: task retries 0 is ambiguous (omit the option for the default of 3, pass negative for unlimited)")
		}
		c.cliOpts.TaskRetries = k
		return nil
	}
}

// WithAutoReconnect re-dials dead workers in the background, each address
// once its hold runs out (50ms after a failure, doubling per consecutive
// failure to 2s), so capacity lost to a worker restart returns on its own —
// even to a batch already in flight, which waits up to 5s for it once every
// worker has died.
func WithAutoReconnect() Option {
	return func(c *config) error {
		c.cliOpts.AutoReconnect = true
		return nil
	}
}

// WithHedgedDispatch enables speculative re-dispatch of straggling blocks
// on distributed runs: once a batch has seen 3 round trips, a block in
// flight for longer than twice their 90th percentile (and at least 25ms) is
// dispatched once more, to whichever connection is free, and the first
// result wins — the same requeue a retry takes. Lemma 1 determinism makes
// the copy's answer identical, so the output is exactly the same — only the
// tail latency of a slow or degraded worker stops dominating the run.
func WithHedgedDispatch() Option {
	return func(c *config) error {
		c.cliOpts.Hedge = true
		return nil
	}
}

// WithMemoryBudget bounds the coordinator's appetite: while the process
// heap is above budget bytes, block dispatch pauses (local and
// distributed) instead of buffering more results toward an OOM kill. One
// block always stays in flight, so the run degrades to serial execution,
// never deadlocks.
func WithMemoryBudget(budget int64) Option {
	return func(c *config) error {
		if budget <= 0 {
			return fmt.Errorf("mce: memory budget %d is not positive", budget)
		}
		c.core.MemoryBudget = budget
		c.cliOpts.MemoryBudget = budget
		return nil
	}
}

// HealthReport summarises per-worker health; see cluster.HealthReport.
type HealthReport = cluster.HealthReport

// WithWorkerHealthReport invokes fn with the per-worker health summary —
// live connections, tasks completed, round-trip latency, corrupt verdicts,
// failure streak and remaining hold — when a distributed run finishes,
// successfully or not. Use it to surface which workers the run leaned on
// and which it lost or held back.
func WithWorkerHealthReport(fn func(HealthReport)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithWorkerHealthReport needs a callback")
		}
		c.healthReport = fn
		return nil
	}
}

// WithTelemetryEngine records metrics into a caller-owned engine, so the
// same counters can be shared with a debug HTTP server or snapshotted
// mid-run, and attaches the final snapshot to Stats.Telemetry. Without it
// the instrumentation is disabled entirely and the hot paths pay nothing
// for it.
func WithTelemetryEngine(e *TelemetryEngine) Option {
	return func(c *config) error {
		if e == nil {
			return fmt.Errorf("mce: WithTelemetryEngine needs an engine")
		}
		c.core.Metrics = e
		return nil
	}
}

// WithCheckpoint makes the run crash-safe: a durable journal in dir records
// the run's identity and every block's lifecycle, each completed block's
// cliques are persisted in an idempotent per-block segment, and a run
// started against a directory holding prior state resumes — completed
// blocks load from disk (Stats.ResumedBlocks counts them) and only the
// remainder is re-analysed. The directory is created when absent; resuming
// with a different graph or different plan-affecting options is refused
// with a clear error. Journal appends are fsync'd, so checkpointing trades
// a little write latency for surviving SIGKILL.
//
// Checkpointing requires the accumulating Enumerate path;
// EnumerateStream rejects it (a resume would re-emit cliques the consumer
// already saw).
func WithCheckpoint(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("mce: WithCheckpoint needs a directory")
		}
		c.checkpointDir = dir
		return nil
	}
}

// HasCheckpoint reports whether dir holds prior run state a WithCheckpoint
// run would resume.
func HasCheckpoint(dir string) bool { return runlog.HasJournal(dir) }

// ErrCheckpointMismatch is wrapped by the error Enumerate returns when the
// -checkpoint directory belongs to a different run: another graph, other
// plan-affecting options, or an unreadable journal that cannot be trusted
// to resume. Match with errors.Is to distinguish "refuse to resume" from
// ordinary failures — mcefind exits with a dedicated code for it.
var ErrCheckpointMismatch = runlog.ErrIdentityMismatch

// WithCheckpointWarning invokes fn (once) if a write failure — a full
// disk, a permissions change — disables checkpointing mid-run. The run
// itself continues and completes with correct results; only crash safety
// is lost from that point on, and Stats.CheckpointDegraded reports it.
// Without this option a checkpoint failure is still non-fatal, just
// unannounced until the final Stats. fn must not call back into the
// enumeration. Implies nothing about WithCheckpoint — it is ignored when
// checkpointing is off.
func WithCheckpointWarning(fn func(error)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithCheckpointWarning needs a callback")
		}
		c.checkpointWarn = fn
		return nil
	}
}

// PoisonVerdict describes one block skipped as a poison task; see
// cluster.PoisonTaskError.
type PoisonVerdict = cluster.PoisonTaskError

// WithSkipPoisonTasks downgrades poison-task verdicts (a block that spent
// its full retry budget of failed attempts) from run-fatal errors to
// recorded skips: the run completes without the affected blocks' cliques
// and Stats.SkippedBlocks counts them. The result is then explicitly
// incomplete — check the count, and use WithPoisonReport to receive the
// per-block diagnostics.
func WithSkipPoisonTasks() Option {
	return func(c *config) error {
		c.cliOpts.SkipPoisonTasks = true
		return nil
	}
}

// WithPoisonReport invokes fn once at the end of a run that skipped poison
// tasks, with one verdict per skipped block (oldest first). Only fires
// under WithSkipPoisonTasks with at least one skip.
func WithPoisonReport(fn func([]PoisonVerdict)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithPoisonReport needs a callback")
		}
		c.poisonReport = fn
		return nil
	}
}

// DialReport describes how the worker dial went; see cluster.DialReport.
type DialReport = cluster.DialReport

// WithWorkerReport invokes fn with the dial report once the worker
// connections are up, letting callers surface a degraded start (some
// workers unreachable) instead of discovering the missing capacity from a
// slow run.
func WithWorkerReport(fn func(DialReport)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("mce: WithWorkerReport needs a callback")
		}
		c.report = fn
		return nil
	}
}

// ParseCombo resolves algorithm and structure names to an internal combo.
func ParseCombo(algorithm, structure string) (mcealg.Combo, error) {
	var combo mcealg.Combo
	switch algorithm {
	case "BKPivot", "bkpivot":
		combo.Alg = mcealg.BKPivot
	case "Tomita", "tomita":
		combo.Alg = mcealg.Tomita
	case "Eppstein", "eppstein":
		combo.Alg = mcealg.Eppstein
	case "XPivot", "xpivot":
		combo.Alg = mcealg.XPivot
	default:
		return combo, fmt.Errorf("mce: unknown algorithm %q (want BKPivot, Tomita, Eppstein or XPivot)", algorithm)
	}
	switch structure {
	case "Matrix", "matrix":
		combo.Struct = mcealg.Matrix
	case "Lists", "lists":
		combo.Struct = mcealg.Lists
	case "BitSets", "bitsets":
		combo.Struct = mcealg.BitSets
	default:
		return combo, fmt.Errorf("mce: unknown structure %q (want Matrix, Lists or BitSets)", structure)
	}
	return combo, nil
}

// Enumerate returns every maximal clique of g.
func Enumerate(g *Graph, opts ...Option) (*Result, error) {
	return EnumerateContext(context.Background(), g, opts...)
}

// EnumerateContext is Enumerate with cancellation: cancelling ctx stops
// the run between recursion levels and cancels block batches already in
// flight, locally and on remote workers.
func EnumerateContext(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	var res *Result
	_, err := run(ctx, opts, func(cfg *config) (*Stats, error) {
		if cfg.checkpointDir != "" {
			// The checkpoint opens here, not in setup: its identity needs the
			// graph, which options never see.
			cp, err := runlog.Open(cfg.checkpointDir, core.CheckpointIdentity(g, cfg.core), runlog.Options{Metrics: cfg.core.Metrics, OnDegrade: cfg.checkpointWarn})
			if err != nil {
				return nil, err
			}
			defer cp.Close()
			cfg.core.Checkpoint = cp
		}
		var err error
		if res, err = core.FindMaxCliquesContext(ctx, g, cfg.core); err != nil {
			return nil, err
		}
		return &res.Stats, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is the wrapper every enumeration route shares: it resolves the
// options, dials the workers, runs enumerate, folds the poison-task verdicts into the Stats enumerate
// returned (and returns them), and closes the workers after delivering the
// health report.
func run(ctx context.Context, opts []Option, enumerate func(*config) (*Stats, error)) (*Stats, error) {
	cfg, client, err := setup(ctx, opts)
	if err != nil {
		return nil, err
	}
	if client != nil {
		defer client.Close()
		if cfg.healthReport != nil {
			// The health summary fires however the run ends — a cancelled
			// or failed run is exactly when the benched-worker record
			// matters most.
			defer func() { cfg.healthReport(client.HealthReport()) }()
		}
	}
	stats, err := enumerate(cfg)
	if err != nil {
		return nil, err
	}
	if client != nil {
		if vs := client.PoisonVerdicts(); len(vs) > 0 {
			stats.SkippedBlocks = len(vs)
			if cfg.poisonReport != nil {
				cfg.poisonReport(vs)
			}
		}
	}
	return stats, nil
}

// setup resolves the options and dials workers when requested; ctx bounds
// the dialling, so a caller's cancellation is honoured before the first
// block ships.
func setup(ctx context.Context, opts []Option) (*config, *cluster.Client, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, nil, err
		}
	}
	// The cluster client shares the run's engine, so coordinator-side wire
	// metrics land in the same snapshot.
	cfg.cliOpts.Metrics = cfg.core.Metrics
	if len(cfg.workers) == 0 {
		return &cfg, nil, nil
	}
	client, err := cluster.DialContext(ctx, cfg.workers, cfg.cliOpts)
	if err != nil {
		return nil, nil, err
	}
	if cfg.report != nil {
		cfg.report(client.DialReport())
	}
	cfg.core.Executor = client
	return &cfg, client, nil
}

// CountMaxCliques returns only the number of maximal cliques, streaming
// internally so no result set is accumulated.
func CountMaxCliques(g *Graph, opts ...Option) (int, error) {
	n := 0
	_, err := EnumerateStream(g, func([]int32, int) { n++ }, opts...)
	return n, err
}

// EnumerateStream is Enumerate without result accumulation: emit receives
// each maximal clique as soon as its block batch completes (ascending node
// IDs; a view valid until emit returns — copy to retain, as internal/family's
// ownership rule has it) together with the hub recursion level it was found
// at. Use it when the clique family may not fit in memory.
// Order and content match Enumerate exactly, and every option but
// WithCheckpoint applies as it does there.
func EnumerateStream(g *Graph, emit func(clique []int32, hubLevel int), opts ...Option) (*Stats, error) {
	return EnumerateStreamContext(context.Background(), g, emit, opts...)
}

// EnumerateStreamContext is EnumerateStream with cancellation, mirroring
// EnumerateContext.
func EnumerateStreamContext(ctx context.Context, g *Graph, emit func(clique []int32, hubLevel int), opts ...Option) (*Stats, error) {
	return run(ctx, opts, func(cfg *config) (*Stats, error) {
		if cfg.checkpointDir != "" {
			return nil, fmt.Errorf("mce: WithCheckpoint is not supported with streaming enumeration (a resume would re-emit cliques already delivered); use Enumerate")
		}
		return core.StreamContext(ctx, g, cfg.core, emit)
	})
}

// StartLocalWorkers launches n block-analysis workers on ephemeral
// localhost ports, for tests and single-machine distributed runs. Call stop
// to shut them down.
func StartLocalWorkers(n int) (addrs []string, stop func(), err error) {
	return cluster.StartLocal(n)
}

// GenerateBarabasiAlbert returns a scale-free preferential-attachment graph
// with n nodes, k edges per new node.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph {
	return gen.BarabasiAlbert(n, k, seed)
}

// GenerateErdosRenyi returns a G(n, p) random graph.
func GenerateErdosRenyi(n int, p float64, seed int64) *Graph {
	return gen.ErdosRenyi(n, p, seed)
}

// GenerateSocialNetwork returns a clique-rich scale-free graph (Holme–Kim
// preferential attachment with triad probability pt), the closest synthetic
// stand-in for friendship networks.
func GenerateSocialNetwork(n, k int, pt float64, seed int64) *Graph {
	return gen.HolmeKim(n, k, pt, seed)
}
