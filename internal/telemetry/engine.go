package telemetry

import (
	"strconv"
	"sync/atomic"
	"time"

	"mce/internal/mcealg"
)

// Counter names one of an Engine's monotonically increasing counters.
type Counter uint8

// The engine's counters, one per Snapshot field of the same name.
const (
	// Decomposition (internal/core).
	BlocksBuilt        Counter = iota // second-level blocks constructed
	KernelNodes                       // total kernel entries across blocks
	BorderNodes                       // total border entries across blocks
	VisitedNodes                      // total visited entries across blocks
	LevelsCompleted                   // first-level recursion levels finished
	CliquesFound                      // cliques emitted by block analysis (pre-filter)
	FamilyMembers                     // members over those cliques: what the levels' flat arenas hold
	FamilyArenaBytes                  // heap bytes of the levels' flat arenas, capacity not use
	HubCliquesFiltered                // hub-side cliques dropped by the Lemma 1 filter
	CutNs                             // total CUT (Algorithm 2) time, nanoseconds
	BlocksNs                          // total BLOCKS (Algorithm 3) time: the serial grow, membership only, nanoseconds
	InduceNs                          // total induced-subgraph build time, summed over the executor's goroutines, nanoseconds
	SelectNs                          // total per-block combo selection time, summed over the executor's goroutines, nanoseconds
	FilterNs                          // total Lemma 1 filter time, nanoseconds

	// Block analysis (internal/core executors, internal/cluster worker).
	BlocksAnalyzed // blocks fully analysed

	// Algorithm internals (internal/mcealg, added per block).
	RecursionNodes  // MCE recursion tree nodes expanded
	PivotSelections // pivot choices made

	// Cluster coordinator (internal/cluster.Client).
	TaskRetries    // failed attempts (transport or corrupt) that requeued a block
	Reconnects     // dead worker connections revived
	PoisonTasks    // blocks that exhausted their retry budget
	CorruptResults // checksum mismatches detected (either direction)
	BytesSent      // estimated payload bytes shipped
	BytesReceived  // estimated payload bytes received

	// Straggler resilience (internal/cluster hedged dispatch).
	HedgedDispatches // speculative duplicate dispatches issued
	HedgeWins        // blocks whose speculative copy finished first
	HedgeWasted      // duplicate results discarded by first-wins dedup

	// Resource guardrails (internal/resguard).
	BackpressurePauses // dispatches paused by the memory guard
	BackpressureNs     // total time spent paused, nanoseconds

	// Cluster worker (internal/cluster.Worker).
	TasksServed // tasks answered by this worker
	TaskErrors  // tasks answered with an in-band application error
	TaskPanics  // block analyses that panicked (isolated in-band)

	// Crash-safe checkpointing (internal/runlog).
	CheckpointRecords       // journal records appended this session
	CheckpointBytes         // journal bytes appended this session
	CheckpointReplayNs      // time spent replaying the journal on open
	CheckpointBlocksSkipped // journaled-done blocks served from the level logs instead of re-analysed
	CheckpointCommits       // group commits that made at least one block durable
	CheckpointCommitBlocks  // blocks those commits carried (÷ commits = mean batch)
	CheckpointLogBytes      // frame bytes appended to the level logs this session
	CheckpointBarrierWaitNs // time SealLevel/FinishRun waited for the committer to drain

	// Query serving (cmd/mced, internal/cliqdb).
	QueriesAdmitted    // requests past admission control
	QueriesShed        // requests rejected with 429 by admission control
	QueriesTimedOut    // admitted requests that hit their deadline (504)
	CacheHits          // result-cache hits
	CacheMisses        // result-cache misses (query executed)
	SingleflightShared // callers that piggybacked on an in-flight query
	DegradedServes     // queries answered from a stale index during rebuild
	IndexRebuilds      // index self-heals / explicit rebuilds completed

	numCounters
)

// Gauge names one of an Engine's instantaneous values, which move both ways.
type Gauge uint8

// The engine's gauges, one per Snapshot field of the same name.
const (
	QueueDepth         Gauge = iota // blocks queued for analysis right now
	TasksInFlight                   // tasks on the wire or being analysed right now
	CheckpointDegraded              // 1 once checkpointing was disabled mid-run

	numGauges
)

// Latency names one of an Engine's duration histograms.
type Latency uint8

// The engine's histograms, one per Snapshot field of the same name.
const (
	BlockNs     Latency = iota // per-block analysis wall time
	RoundTripNs                // coordinator-side task round trip: send → analyse → receive
	QueryNs                    // admitted-query latency on the serving path

	numLatencies
)

// comboCell is one slot of the per-combo pick/timing distribution.
type comboCell struct {
	picks  atomic.Int64 // decision-tree selections of this combo
	blocks atomic.Int64 // blocks analysed with this combo
	ns     atomic.Int64 // total analysis time, nanoseconds
}

// Engine is the live metrics registry for one enumeration run or one worker
// process. It exports no fields: every update and read is a method that is
// safe for concurrent use and does nothing on a nil *Engine, which is how
// telemetry is switched off. On nil an update returns before touching any
// atomic and a clock helper returns without reading the clock, so the
// paper-faithful fast path pays one inlined nil check per site.
//
// One Engine type serves every role (coordinator, local pool, remote
// worker); metrics irrelevant to a role simply stay zero and are easy to
// read as such in the snapshot.
type Engine struct {
	counters  [numCounters]atomic.Int64
	gauges    [numGauges]atomic.Int64
	latencies [numLatencies]*Histogram
	combos    [mcealg.NumCombos]comboCell
	endpoints [NumEndpoints]endpointCell
}

// NewEngine returns a ready-to-use engine.
func NewEngine() *Engine {
	e := &Engine{}
	for i := range e.latencies {
		e.latencies[i] = NewDurationHistogram()
	}
	return e
}

// Inc adds 1 to counter c.
//
//mce:hotpath instrumentation fast path
func (e *Engine) Inc(c Counter) {
	if e != nil {
		e.counters[c].Add(1)
	}
}

// Add adds n to counter c (n must be ≥ 0 for it to stay monotonic).
//
//mce:hotpath instrumentation fast path
func (e *Engine) Add(c Counter, n int64) {
	if e != nil {
		e.counters[c].Add(n)
	}
}

// Load returns counter c, 0 on a nil engine.
func (e *Engine) Load(c Counter) int64 {
	if e == nil {
		return 0
	}
	return e.counters[c].Load()
}

// Move moves gauge g by n (negative to decrease).
//
//mce:hotpath instrumentation fast path
func (e *Engine) Move(g Gauge, n int64) {
	if e != nil {
		e.gauges[g].Add(n)
	}
}

// Set replaces gauge g's value.
func (e *Engine) Set(g Gauge, n int64) {
	if e != nil {
		e.gauges[g].Store(n)
	}
}

// Observe records one duration in histogram l.
//
//mce:hotpath instrumentation fast path
func (e *Engine) Observe(l Latency, d time.Duration) {
	if e != nil {
		e.latencies[l].Observe(int64(d))
	}
}

// Now starts a lap: the current time, or the zero time on a nil engine,
// which reads no clock.
func (e *Engine) Now() time.Time {
	if e == nil {
		return time.Time{}
	}
	return time.Now()
}

// Lap adds the time since t0 to counter c and returns the time the next lap
// starts at. On a nil engine it reads no clock and returns t0.
//
//mce:hotpath instrumentation fast path
func (e *Engine) Lap(c Counter, t0 time.Time) time.Time {
	if e == nil {
		return t0
	}
	return e.lap(c, t0)
}

func (e *Engine) lap(c Counter, t0 time.Time) time.Time {
	now := time.Now()
	e.counters[c].Add(int64(now.Sub(t0)))
	return now
}

// Since returns the time elapsed since t0, or 0 on a nil engine, which
// reads no clock.
func (e *Engine) Since(t0 time.Time) time.Duration {
	if e == nil {
		return 0
	}
	return time.Since(t0)
}

// ComboPicked records one decision-tree (or fixed-combo) selection; i is
// mcealg.Combo.Index, and the snapshot names the slot from it.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboPicked(i int) {
	if e != nil && i >= 0 && i < mcealg.NumCombos {
		e.combos[i].picks.Add(1)
	}
}

// ComboAnalyzed records one completed block analysis with the given combo:
// the per-combo block count and total time, the global BlocksAnalyzed
// counter and the BlockNs histogram.
//
//mce:hotpath per-block combo accounting
func (e *Engine) ComboAnalyzed(i int, d time.Duration) {
	if e != nil {
		e.comboAnalyzed(i, d)
	}
}

func (e *Engine) comboAnalyzed(i int, d time.Duration) {
	e.counters[BlocksAnalyzed].Add(1)
	e.latencies[BlockNs].Observe(int64(d))
	if i < 0 || i >= mcealg.NumCombos {
		return
	}
	c := &e.combos[i]
	c.blocks.Add(1)
	c.ns.Add(int64(d))
}

// ComboStat is one row of the per-combo distribution in a Snapshot.
type ComboStat struct {
	Combo   string `json:"combo"`
	Picks   int64  `json:"picks"`
	Blocks  int64  `json:"blocks"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot is a point-in-time JSON view of an Engine. Field semantics match
// the Engine constant of the same name; Combos lists only slots that were
// ever picked or analysed.
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

// Snapshot captures the engine's current state, the zero Snapshot on a nil
// engine. It is safe to call while the run is in flight; counters are read
// individually, so totals may be off by the updates racing the read — fine
// for progress reporting.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	return e.snapshot()
}

func (e *Engine) snapshot() Snapshot {
	c := func(i Counter) int64 { return e.counters[i].Load() }
	g := func(i Gauge) int64 { return e.gauges[i].Load() }
	s := Snapshot{
		BlocksBuilt:        c(BlocksBuilt),
		KernelNodes:        c(KernelNodes),
		BorderNodes:        c(BorderNodes),
		VisitedNodes:       c(VisitedNodes),
		LevelsCompleted:    c(LevelsCompleted),
		CliquesFound:       c(CliquesFound),
		FamilyMembers:      c(FamilyMembers),
		FamilyArenaBytes:   c(FamilyArenaBytes),
		HubCliquesFiltered: c(HubCliquesFiltered),
		CutNs:              c(CutNs),
		BlocksNs:           c(BlocksNs),
		InduceNs:           c(InduceNs),
		SelectNs:           c(SelectNs),
		FilterNs:           c(FilterNs),
		QueueDepth:         g(QueueDepth),
		BlocksAnalyzed:     c(BlocksAnalyzed),
		RecursionNodes:     c(RecursionNodes),
		PivotSelections:    c(PivotSelections),
		TasksInFlight:      g(TasksInFlight),
		TaskRetries:        c(TaskRetries),
		Reconnects:         c(Reconnects),
		PoisonTasks:        c(PoisonTasks),
		CorruptResults:     c(CorruptResults),
		BytesSent:          c(BytesSent),
		BytesReceived:      c(BytesReceived),
		HedgedDispatches:   c(HedgedDispatches),
		HedgeWins:          c(HedgeWins),
		HedgeWasted:        c(HedgeWasted),
		BackpressurePauses: c(BackpressurePauses),
		BackpressureNs:     c(BackpressureNs),
		CheckpointDegraded: g(CheckpointDegraded),
		TasksServed:        c(TasksServed),
		TaskErrors:         c(TaskErrors),
		TaskPanics:         c(TaskPanics),

		CheckpointRecords:       c(CheckpointRecords),
		CheckpointBytes:         c(CheckpointBytes),
		CheckpointReplayNs:      c(CheckpointReplayNs),
		CheckpointBlocksSkipped: c(CheckpointBlocksSkipped),
		CheckpointCommits:       c(CheckpointCommits),
		CheckpointCommitBlocks:  c(CheckpointCommitBlocks),
		CheckpointLogBytes:      c(CheckpointLogBytes),
		CheckpointBarrierWaitNs: c(CheckpointBarrierWaitNs),
		QueriesAdmitted:         c(QueriesAdmitted),
		QueriesShed:             c(QueriesShed),
		QueriesTimedOut:         c(QueriesTimedOut),
		CacheHits:               c(CacheHits),
		CacheMisses:             c(CacheMisses),
		SingleflightShared:      c(SingleflightShared),
		DegradedServes:          c(DegradedServes),
		IndexRebuilds:           c(IndexRebuilds),

		BlockNs:     e.latencies[BlockNs].Snapshot(),
		RoundTripNs: e.latencies[RoundTripNs].Snapshot(),
		QueryNs:     e.latencies[QueryNs].Snapshot(),
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
