package telemetry

import (
	"strconv"
	"time"

	"mce/internal/mcealg"
)

// comboCell is one slot of the per-combo pick/timing distribution.
type comboCell struct {
	picks  Counter // decision-tree selections of this combo
	blocks Counter // blocks analysed with this combo
	ns     Counter // total analysis time, nanoseconds
}

// Engine is the live metrics registry for one enumeration run or one worker
// process. All fields are safe for concurrent update; a nil *Engine means
// telemetry is disabled and every instrumentation site must be guarded by a
// nil-check, keeping the paper-faithful fast path allocation-free.
//
// One Engine type serves every role (coordinator, local pool, remote
// worker); fields irrelevant to a role simply stay zero and are easy to
// read as such in the snapshot.
type Engine struct {
	// Decomposition (internal/core).
	BlocksBuilt        Counter // second-level blocks constructed
	KernelNodes        Counter // total kernel entries across blocks
	BorderNodes        Counter // total border entries across blocks
	VisitedNodes       Counter // total visited entries across blocks
	LevelsCompleted    Counter // first-level recursion levels finished
	CliquesFound       Counter // cliques emitted by block analysis (pre-filter)
	FamilyMembers      Counter // members over those cliques: what the levels' flat arenas hold
	FamilyArenaBytes   Counter // heap bytes of the levels' flat arenas, capacity not use
	HubCliquesFiltered Counter // hub-side cliques dropped by the Lemma 1 filter
	CutNs              Counter // total CUT (Algorithm 2) time, nanoseconds
	BlocksNs           Counter // total BLOCKS (Algorithm 3) time: the serial grow, membership only, nanoseconds
	InduceNs           Counter // total induced-subgraph build time, summed over the executor's goroutines, nanoseconds
	SelectNs           Counter // total per-block combo selection time, summed over the executor's goroutines, nanoseconds
	FilterNs           Counter // total Lemma 1 filter time, nanoseconds
	QueueDepth         Gauge   // blocks queued for analysis right now

	// Block analysis (internal/core executors, internal/cluster worker).
	BlocksAnalyzed Counter // blocks fully analysed

	// Algorithm internals (internal/mcealg, merged per block).
	RecursionNodes  Counter // MCE recursion tree nodes expanded
	PivotSelections Counter // pivot choices made

	// Cluster coordinator (internal/cluster.Client).
	TasksInFlight  Gauge   // tasks currently on the wire or being analysed
	TaskRetries    Counter // failed attempts (transport or corrupt) that requeued a block
	Reconnects     Counter // dead worker connections revived
	PoisonTasks    Counter // blocks that exhausted their retry budget
	CorruptResults Counter // checksum mismatches detected (either direction)
	BytesSent      Counter // estimated payload bytes shipped
	BytesReceived  Counter // estimated payload bytes received

	// Straggler resilience (internal/cluster hedged dispatch).
	HedgedDispatches Counter // speculative duplicate dispatches issued
	HedgeWins        Counter // blocks whose speculative copy finished first
	HedgeWasted      Counter // duplicate results discarded by first-wins dedup

	// Resource guardrails (internal/resguard, internal/runlog).
	BackpressurePauses Counter // dispatches paused by the memory guard
	BackpressureNs     Counter // total time spent paused, nanoseconds
	CheckpointDegraded Gauge   // 1 once checkpointing was disabled mid-run

	// Cluster worker (internal/cluster.Worker).
	TasksServed Counter // tasks answered by this worker
	TaskErrors  Counter // tasks answered with an in-band application error
	TaskPanics  Counter // block analyses that panicked (isolated in-band)

	// Crash-safe checkpointing (internal/runlog).
	CheckpointRecords       Counter // journal records appended this session
	CheckpointBytes         Counter // journal bytes appended this session
	CheckpointReplayNs      Counter // time spent replaying the journal on open
	CheckpointBlocksSkipped Counter // journaled-done blocks served from the level logs instead of re-analysed
	CheckpointCommits       Counter // group commits that made at least one block durable
	CheckpointCommitBlocks  Counter // blocks those commits carried (÷ commits = mean batch)
	CheckpointLogBytes      Counter // frame bytes appended to the level logs this session
	CheckpointBarrierWaitNs Counter // time SealLevel/FinishRun waited for the committer to drain

	// Query serving (cmd/mced, internal/cliqdb).
	QueriesAdmitted    Counter // requests past admission control
	QueriesShed        Counter // requests rejected with 429 by admission control
	QueriesTimedOut    Counter // admitted requests that hit their deadline (504)
	CacheHits          Counter // result-cache hits
	CacheMisses        Counter // result-cache misses (query executed)
	SingleflightShared Counter // callers that piggybacked on an in-flight query
	DegradedServes     Counter // queries answered from a stale index during rebuild
	IndexRebuilds      Counter // index self-heals / explicit rebuilds completed

	// BlockNs is the per-block analysis wall-time distribution; RoundTripNs
	// is the coordinator-side task round-trip distribution (send → analyse →
	// receive, including simulated link costs); QueryNs is the admitted-query
	// latency distribution on the serving path.
	BlockNs     *Histogram
	RoundTripNs *Histogram
	QueryNs     *Histogram

	combos    [mcealg.NumCombos]comboCell
	endpoints [NumEndpoints]endpointCell
}

// NewEngine returns a ready-to-use engine.
func NewEngine() *Engine {
	return &Engine{
		BlockNs:     NewDurationHistogram(),
		RoundTripNs: NewDurationHistogram(),
		QueryNs:     NewDurationHistogram(),
	}
}

// ComboPicked records one decision-tree (or fixed-combo) selection; i is
// mcealg.Combo.Index, and the snapshot names the slot from it.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboPicked(i int) {
	if i < 0 || i >= mcealg.NumCombos {
		return
	}
	e.combos[i].picks.Inc()
}

// ComboAnalyzed records one completed block analysis with the given combo:
// the per-combo block count and total time, the global BlocksAnalyzed
// counter and the BlockNs histogram.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboAnalyzed(i int, d time.Duration) {
	e.BlocksAnalyzed.Inc()
	e.BlockNs.Observe(int64(d))
	if i < 0 || i >= mcealg.NumCombos {
		return
	}
	c := &e.combos[i]
	c.blocks.Inc()
	c.ns.Add(int64(d))
}

// BlockInstr accumulates the single-threaded per-block algorithm counters
// (plain fields, no atomics) so the MCE recursion itself never touches
// shared state; the executor merges it into the engine once per block.
type BlockInstr struct {
	RecursionNodes  int64
	PivotSelections int64
}

// MergeBlockInstr folds one block's counters into the shared engine (two
// atomic adds) and resets ins for reuse.
//
//mce:hotpath per-block counter merge
func (e *Engine) MergeBlockInstr(ins *BlockInstr) {
	if ins == nil {
		return
	}
	e.RecursionNodes.Add(ins.RecursionNodes)
	e.PivotSelections.Add(ins.PivotSelections)
	*ins = BlockInstr{}
}

// ComboStat is one row of the per-combo distribution in a Snapshot.
type ComboStat struct {
	Combo   string `json:"combo"`
	Picks   int64  `json:"picks"`
	Blocks  int64  `json:"blocks"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot is a point-in-time JSON view of an Engine. Field semantics match
// the Engine field of the same name; Combos lists only slots that were ever
// picked or analysed.
type Snapshot struct {
	BlocksBuilt        int64 `json:"blocks_built"`
	KernelNodes        int64 `json:"kernel_nodes"`
	BorderNodes        int64 `json:"border_nodes"`
	VisitedNodes       int64 `json:"visited_nodes"`
	LevelsCompleted    int64 `json:"levels_completed"`
	CliquesFound       int64 `json:"cliques_found"`
	FamilyMembers      int64 `json:"family_members"`
	FamilyArenaBytes   int64 `json:"family_arena_bytes"`
	HubCliquesFiltered int64 `json:"hub_cliques_filtered"`
	CutNs              int64 `json:"cut_ns"`
	BlocksNs           int64 `json:"blocks_ns"`
	InduceNs           int64 `json:"induce_ns"`
	SelectNs           int64 `json:"select_ns"`
	FilterNs           int64 `json:"filter_ns"`
	QueueDepth         int64 `json:"queue_depth"`

	BlocksAnalyzed int64 `json:"blocks_analyzed"`

	RecursionNodes  int64 `json:"recursion_nodes"`
	PivotSelections int64 `json:"pivot_selections"`

	TasksInFlight  int64 `json:"tasks_in_flight"`
	TaskRetries    int64 `json:"task_retries"`
	Reconnects     int64 `json:"reconnects"`
	PoisonTasks    int64 `json:"poison_tasks"`
	CorruptResults int64 `json:"corrupt_results"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesReceived  int64 `json:"bytes_received"`

	HedgedDispatches int64 `json:"hedged_dispatches"`
	HedgeWins        int64 `json:"hedge_wins"`
	HedgeWasted      int64 `json:"hedge_wasted"`

	BackpressurePauses int64 `json:"backpressure_pauses"`
	BackpressureNs     int64 `json:"backpressure_ns"`
	CheckpointDegraded int64 `json:"checkpoint_degraded"`

	TasksServed int64 `json:"tasks_served"`
	TaskErrors  int64 `json:"task_errors"`
	TaskPanics  int64 `json:"task_panics"`

	CheckpointRecords       int64 `json:"checkpoint_records"`
	CheckpointBytes         int64 `json:"checkpoint_bytes"`
	CheckpointReplayNs      int64 `json:"checkpoint_replay_ns"`
	CheckpointBlocksSkipped int64 `json:"checkpoint_blocks_skipped"`
	CheckpointCommits       int64 `json:"checkpoint_commits"`
	CheckpointCommitBlocks  int64 `json:"checkpoint_commit_blocks"`
	CheckpointLogBytes      int64 `json:"checkpoint_log_bytes"`
	CheckpointBarrierWaitNs int64 `json:"checkpoint_barrier_wait_ns"`

	QueriesAdmitted    int64 `json:"queries_admitted"`
	QueriesShed        int64 `json:"queries_shed"`
	QueriesTimedOut    int64 `json:"queries_timed_out"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	SingleflightShared int64 `json:"singleflight_shared"`
	DegradedServes     int64 `json:"degraded_serves"`
	IndexRebuilds      int64 `json:"index_rebuilds"`

	BlockNs     HistogramSnapshot `json:"block_ns"`
	RoundTripNs HistogramSnapshot `json:"round_trip_ns"`
	QueryNs     HistogramSnapshot `json:"query_ns"`

	Combos    []ComboStat    `json:"combos,omitempty"`
	Endpoints []EndpointStat `json:"endpoints,omitempty"`
}

// Snapshot captures the engine's current state. It is safe to call while
// the run is in flight; counters are read individually, so totals may be
// off by the updates racing the read — fine for progress reporting.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		BlocksBuilt:        e.BlocksBuilt.Load(),
		KernelNodes:        e.KernelNodes.Load(),
		BorderNodes:        e.BorderNodes.Load(),
		VisitedNodes:       e.VisitedNodes.Load(),
		LevelsCompleted:    e.LevelsCompleted.Load(),
		CliquesFound:       e.CliquesFound.Load(),
		FamilyMembers:      e.FamilyMembers.Load(),
		FamilyArenaBytes:   e.FamilyArenaBytes.Load(),
		HubCliquesFiltered: e.HubCliquesFiltered.Load(),
		CutNs:              e.CutNs.Load(),
		BlocksNs:           e.BlocksNs.Load(),
		InduceNs:           e.InduceNs.Load(),
		SelectNs:           e.SelectNs.Load(),
		FilterNs:           e.FilterNs.Load(),
		QueueDepth:         e.QueueDepth.Load(),
		BlocksAnalyzed:     e.BlocksAnalyzed.Load(),
		RecursionNodes:     e.RecursionNodes.Load(),
		PivotSelections:    e.PivotSelections.Load(),
		TasksInFlight:      e.TasksInFlight.Load(),
		TaskRetries:        e.TaskRetries.Load(),
		Reconnects:         e.Reconnects.Load(),
		PoisonTasks:        e.PoisonTasks.Load(),
		CorruptResults:     e.CorruptResults.Load(),
		BytesSent:          e.BytesSent.Load(),
		BytesReceived:      e.BytesReceived.Load(),
		HedgedDispatches:   e.HedgedDispatches.Load(),
		HedgeWins:          e.HedgeWins.Load(),
		HedgeWasted:        e.HedgeWasted.Load(),
		BackpressurePauses: e.BackpressurePauses.Load(),
		BackpressureNs:     e.BackpressureNs.Load(),
		CheckpointDegraded: e.CheckpointDegraded.Load(),
		TasksServed:        e.TasksServed.Load(),
		TaskErrors:         e.TaskErrors.Load(),
		TaskPanics:         e.TaskPanics.Load(),

		CheckpointRecords:       e.CheckpointRecords.Load(),
		CheckpointBytes:         e.CheckpointBytes.Load(),
		CheckpointReplayNs:      e.CheckpointReplayNs.Load(),
		CheckpointBlocksSkipped: e.CheckpointBlocksSkipped.Load(),
		CheckpointCommits:       e.CheckpointCommits.Load(),
		CheckpointCommitBlocks:  e.CheckpointCommitBlocks.Load(),
		CheckpointLogBytes:      e.CheckpointLogBytes.Load(),
		CheckpointBarrierWaitNs: e.CheckpointBarrierWaitNs.Load(),
		QueriesAdmitted:         e.QueriesAdmitted.Load(),
		QueriesShed:             e.QueriesShed.Load(),
		QueriesTimedOut:         e.QueriesTimedOut.Load(),
		CacheHits:               e.CacheHits.Load(),
		CacheMisses:             e.CacheMisses.Load(),
		SingleflightShared:      e.SingleflightShared.Load(),
		DegradedServes:          e.DegradedServes.Load(),
		IndexRebuilds:           e.IndexRebuilds.Load(),

		BlockNs:     e.BlockNs.Snapshot(),
		RoundTripNs: e.RoundTripNs.Snapshot(),
		QueryNs:     e.QueryNs.Snapshot(),
	}
	for i := range e.combos {
		c := &e.combos[i]
		picks, blocks := c.picks.Load(), c.blocks.Load()
		if picks == 0 && blocks == 0 {
			continue
		}
		s.Combos = append(s.Combos, ComboStat{Combo: mcealg.ComboAt(i).Label(), Picks: picks, Blocks: blocks, TotalNs: c.ns.Load()})
	}
	for i := range e.endpoints {
		c := &e.endpoints[i]
		requests := c.requests.Load()
		if requests == 0 {
			continue
		}
		name := "endpoint-" + strconv.Itoa(i)
		if l := c.label.Load(); l != nil {
			name = *l
		}
		s.Endpoints = append(s.Endpoints, EndpointStat{
			Endpoint: name,
			Requests: requests,
			Errors:   c.errors.Load(),
			TotalNs:  c.ns.Load(),
		})
	}
	return s
}
