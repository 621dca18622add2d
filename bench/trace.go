package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"mce"
	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
	"mce/internal/community"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/filter"
	"mce/internal/gio"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// layerMetrics are printed by every traced run, on every workload; a layer
// a workload never enters reads 0. README.md says which end-to-end metric
// each of them should move, and on which workload.
var layerMetrics = []metricDecl{
	{name: "gio.load_ms", unit: "ms", better: "lower"},
	{name: "decomp.cut_ms", unit: "ms", better: "lower"},
	{name: "decomp.hubs", unit: "count", better: "lower"},
	{name: "decomp.blocks_ms", unit: "ms", better: "lower"},
	{name: "decomp.blocks", unit: "count", better: "lower"},
	{name: "decomp.block_nodes_max", unit: "count", better: "lower"},
	{name: "kcore.measure_ms", unit: "ms", better: "lower"},
	{name: "mcealg.analyze_ms", unit: "ms", better: "lower"},
	{name: "mcealg.recursion_nodes", unit: "count", better: "lower"},
	{name: "mcealg.pivot_selections", unit: "count", better: "lower"},
	{name: "mcealg.ns_per_node", unit: "ns", better: "lower"},
	{name: "dtree.combo_blocks.lists_xpivot", unit: "count", better: "higher"},
	{name: "dtree.combo_blocks.matrix_xpivot", unit: "count", better: "higher"},
	{name: "dtree.combo_blocks.matrix_bkpivot", unit: "count", better: "higher"},
	{name: "dtree.combo_blocks.bitsets_tomita", unit: "count", better: "higher"},
	{name: "dtree.combo_blocks.other", unit: "count", better: "lower"},
	{name: "filter.lemma1_ms", unit: "ms", better: "lower"},
	{name: "filter.hub_cliques_dropped", unit: "count", better: "higher"},
	{name: "filter.sort_dedup_ms", unit: "ms", better: "lower"},
	{name: "core.levels", unit: "count", better: "lower"},
	{name: "core.cliques", unit: "count", better: "higher"},
	{name: "core.local_plain_ms", unit: "ms", better: "lower"},
	{name: "core.unattributed_ms", unit: "ms", better: "lower"},
	{name: "core.unattributed_share", unit: "share", better: "lower"},
	{name: "cluster.overhead_ms", unit: "ms", better: "lower"},
	{name: "cluster.bytes_sent", unit: "B", better: "lower"},
	{name: "cluster.bytes_received", unit: "B", better: "lower"},
	{name: "cluster.roundtrip_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.task_retries", unit: "count", better: "lower"},
	{name: "runlog.overhead_ms", unit: "ms", better: "lower"},
	{name: "runlog.records", unit: "count", better: "lower"},
	{name: "runlog.journal_bytes", unit: "B", better: "lower"},
	{name: "runlog.resume_ms", unit: "ms", better: "lower"},
	{name: "runlog.replay_ms", unit: "ms", better: "lower"},
	{name: "runlog.blocks_skipped", unit: "count", better: "higher"},
	{name: "cliqstore.segment_bytes", unit: "B", better: "lower"},
	{name: "cliqstore.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "cliqstore.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "cliqdb.build_ms", unit: "ms", better: "lower"},
	{name: "cliqdb.build_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "cliqdb.index_bytes", unit: "B", better: "lower"},
	{name: "cliqdb.bytes_per_clique", unit: "B", better: "lower"},
	{name: "cliqdb.open_verify_ms", unit: "ms", better: "lower"},
	{name: "cliqdb.cliques_of_ns", unit: "ns", better: "lower"},
	{name: "cliqdb.common_cliques_ns", unit: "ns", better: "lower"},
	{name: "cliqdb.top_k_ns", unit: "ns", better: "lower"},
	{name: "community.detect_ms", unit: "ms", better: "lower"},
	{name: "mced.cliques_of_p50_ms", unit: "ms", better: "lower"},
	{name: "mced.cliques_of_p99_ms", unit: "ms", better: "lower"},
	{name: "mced.common_cliques_p50_ms", unit: "ms", better: "lower"},
	{name: "mced.common_cliques_p99_ms", unit: "ms", better: "lower"},
	{name: "mced.top_k_p50_ms", unit: "ms", better: "lower"},
	{name: "mced.top_k_p99_ms", unit: "ms", better: "lower"},
	{name: "mced.communities_p50_ms", unit: "ms", better: "lower"},
	{name: "mced.communities_p99_ms", unit: "ms", better: "lower"},
	{name: "mced.cache_hit_share", unit: "share", better: "higher"},
	{name: "mced.shed", unit: "count", better: "lower"},
	{name: "mced.timed_out", unit: "count", better: "lower"},
	{name: "mced.singleflight_shared", unit: "count", better: "higher"},
	{name: "mced.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.alloc_mb_per_op", unit: "MiB", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "share", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// traceRepeats is how often a layer measured on its own is repeated; the
// median is reported.
const traceRepeats = 3

// span is one timed interval of a traced run. The spans are recorded from
// this package, around the calls into each layer; the layers themselves
// carry no spans yet.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"` // ns since the trace began
	End      int64  `json:"end"`
	Parent   int    `json:"parent"` // index of the span that caused it, -1 for the root
	Workload string `json:"workload"`
}

// tracer keeps the spans of one run in memory; write puts them out when
// the run ends. It is used from one goroutine.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	values   map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), values: make(map[string]float64)}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// do runs fn inside a span and returns how long it took.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// under sums the spans called name that descend from root.
func (t *tracer) under(root int, name string) time.Duration {
	var sum time.Duration
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := i; p >= 0; p = t.spans[p].Parent {
			if p == root {
				sum += time.Duration(s.End - s.Start)
				break
			}
		}
	}
	return sum
}

func (t *tracer) set(name string, v float64) { t.values[name] = v }

// report writes the spans to bench/out/trace_<workload>.json and turns the
// collected values into the run's report.
func (t *tracer) report(attempted, failed int) (*report, error) {
	if err := os.MkdirAll(filepath.Join("bench", "out"), 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join("bench", "out", "trace_"+t.workload+".json"), data, 0o644); err != nil {
		return nil, err
	}
	rep := &report{attempted: attempted, failed: failed}
	for name, v := range t.values {
		rep.metrics = append(rep.metrics, metric{name: name, value: v})
	}
	return rep, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procReading is the process's resource use so far.
type procReading struct {
	cpu     time.Duration
	alloc   uint64  // bytes allocated
	gcCPU   float64 // seconds of CPU the collector used
	gcPause time.Duration
}

func readProc() procReading {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return procReading{cpu: cpuTime(), alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), gcPause: gc.PauseTotal}
}

// replayTop is what the replay saw at level 0.
type replayTop struct {
	hubs, blocks, blockNodesMax int
}

// replay is core.findRecursive spelled out as calls into the layers'
// exported functions, one span around each, block analysis on one
// goroutine. It returns the maximal cliques of g, which traceBatch holds to
// the family the real op produced.
func (t *tracer) replay(g *graph.Graph, m, level, parent int, top *replayTop) ([][]int32, error) {
	lv := t.begin("core.level", parent)
	defer t.end(lv)
	var feasible, hubs []int32
	t.do("decomp.cut", lv, func() { feasible, hubs = decomp.Cut(g, m) })
	tree := dtree.Published()
	var cf [][]int32
	emit := func(c []int32) { cf = append(cf, append([]int32(nil), c...)) }
	var err error
	if len(feasible) == 0 {
		// Every node is a hub: the terminal core, enumerated as one graph.
		var combo mcealg.Combo
		t.do("kcore.measure", lv, func() { combo = dtree.SafePredict(tree, kcore.Measure(g)) })
		t.do("mcealg.analyze", lv, func() { err = mcealg.Enumerate(g, combo, emit) })
		return cf, err
	}
	var blocks []decomp.Block
	t.do("decomp.blocks", lv, func() { blocks = decomp.Blocks(g, feasible, m, decomp.Options{}) })
	combos := make([]mcealg.Combo, len(blocks))
	t.do("kcore.measure", lv, func() {
		for i := range blocks {
			combos[i] = dtree.SafePredict(tree, kcore.Measure(blocks[i].Graph))
		}
	})
	t.do("mcealg.analyze", lv, func() {
		for i := range blocks {
			if err = decomp.AnalyzeBlock(&blocks[i], combos[i], emit); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if level == 0 {
		top.hubs, top.blocks = len(hubs), len(blocks)
		for i := range blocks {
			top.blockNodesMax = max(top.blockNodesMax, blocks[i].Graph.N())
		}
	}
	if len(hubs) == 0 {
		return cf, nil
	}
	sub, orig := graph.Induced(g, hubs)
	ch, err := t.replay(sub, m, level+1, lv, top)
	if err != nil {
		return nil, err
	}
	for _, c := range ch {
		for j, v := range c {
			c[j] = orig[v] // orig ascends, so c stays ascending
		}
	}
	var kept [][]int32
	t.do("filter.lemma1", lv, func() { kept = filter.Filter(ch, cf) })
	return append(cf, kept...), nil
}

// sortedDigest is the digest of a family in canonical order, so that two
// families emitted in different orders compare equal.
func sortedDigest(cliques [][]int32) uint32 {
	s := append([][]int32(nil), cliques...)
	filter.SortCliques(s)
	return cliqstore.Digest(s)
}

// comboMetric maps a combo label such as "[Lists/XPivot]" to its
// dtree.combo_blocks metric.
func comboMetric(label string) string {
	name := "dtree.combo_blocks." + strings.ReplaceAll(strings.ToLower(strings.Trim(label, "[]")), "/", "_")
	for _, d := range layerMetrics {
		if d.name == name {
			return name
		}
	}
	return "dtree.combo_blocks.other"
}

// traceBatch is the per-layer run of an enumeration workload: pairs of
// plain and telemetry-carrying ops for the tracing overhead and the
// process's resource use, one replay through the layers for where the time
// goes, and mce.VerifyResult once.
func traceBatch(e *env, spec batchSpec) (*report, error) {
	t := newTracer(spec.name)
	root := t.begin("trace", -1)
	var b *batchInst
	var err error
	t.do("setup", root, func() { b, err = setupBatch(e, spec) })
	if err != nil {
		return nil, err
	}
	defer b.close()
	load := t.do("gio.load", root, func() { _, _, err = gio.LoadFile(filepath.Join(e.scratch, "graph.txt")) })
	if err != nil {
		return nil, err
	}
	t.set("gio.load_ms", msOf(load))

	attempted, failed := 0, 0
	checked := func(results []*mce.Result, err error) error {
		attempted++
		if err == nil && !b.check(results) {
			failed++
		}
		return err
	}
	// timedOp lets go of the op's results before it returns: a family kept
	// alive into the next op would be marked by every collection in it.
	timedOp := func(eng *mce.TelemetryEngine) (float64, error) {
		runtime.GC()
		wall, results, err := b.op(eng)
		return msOf(wall), checked(results, err)
	}
	var plain, traced []float64
	var used procReading
	for start := time.Now(); time.Since(start) < e.seconds/2 || len(traced) < 2; {
		ms, err := timedOp(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms)
		before := readProc()
		id := t.begin("op", root)
		ms, err = timedOp(mce.NewTelemetryEngine())
		t.end(id)
		after := readProc()
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms)
		used.cpu += after.cpu - before.cpu
		used.alloc += after.alloc - before.alloc
		used.gcCPU += after.gcCPU - before.gcCPU
		used.gcPause += after.gcPause - before.gcPause
	}
	ops := float64(len(traced))
	t.set("trace.overhead_share", median(traced)/median(plain)-1)
	t.set("proc.cpu_ms_per_op", msOf(used.cpu)/ops)
	t.set("proc.alloc_mb_per_op", float64(used.alloc)/(1<<20)/ops)
	t.set("proc.gc_cpu_share", used.gcCPU/used.cpu.Seconds())
	t.set("proc.gc_pause_ms", msOf(used.gcPause)/ops)

	// The enumeration alone, on the local executor: the op itself for the
	// two plain workloads, the base line of durable_cluster's overheads.
	// Its telemetry has the counts (a cluster run analyses on the workers,
	// whose counters stay with them).
	var snap telemetry.Snapshot
	var res *mce.Result
	var localMS []float64
	for i := 0; i < traceRepeats; i++ {
		runtime.GC()
		eng := mce.NewTelemetryEngine()
		d := t.do("core.local_plain", root, func() { res, err = b.enumerate(false, nil, eng) })
		if err := checked([]*mce.Result{res}, err); err != nil {
			return nil, err
		}
		localMS = append(localMS, msOf(d))
		snap = eng.Snapshot()
	}
	t.set("core.local_plain_ms", median(localMS))
	t.set("core.levels", float64(len(res.Stats.Levels)))
	t.set("core.cliques", float64(res.Stats.TotalCliques))
	t.set("mcealg.recursion_nodes", float64(snap.RecursionNodes))
	t.set("mcealg.pivot_selections", float64(snap.PivotSelections))
	t.set("filter.hub_cliques_dropped", float64(snap.HubCliquesFiltered))
	for _, c := range snap.Combos {
		t.values[comboMetric(c.Combo)] += float64(c.Blocks)
	}

	// The op's family is checked and let go before the replay, which then
	// runs on the heap an op runs on.
	want, blockSize := sortedDigest(res.Cliques), res.Stats.BlockSize
	attempted++
	t.do("verify", root, func() { err = mce.VerifyResult(b.g, res) })
	if err != nil {
		fmt.Fprintf(e.log, "%-18s WRONG: %v\n", spec.name, err)
		failed++
	}

	res = nil
	runtime.GC()

	var top replayTop
	rp := t.begin("replay", root)
	fam, err := t.replay(b.g, blockSize, 0, rp, &top)
	if err != nil {
		return nil, err
	}
	t.do("filter.sort_dedup", rp, func() {
		filter.SortCliques(fam)
		fam = filter.Dedup(fam)
	})
	t.end(rp)
	attempted++
	if cliqstore.Digest(fam) != want {
		fmt.Fprintf(e.log, "%-18s WRONG: the replay through the layers yields another family than the op\n", spec.name)
		failed++
	}
	layers := time.Duration(0)
	for _, l := range []struct{ span, metric string }{
		{"decomp.cut", "decomp.cut_ms"},
		{"decomp.blocks", "decomp.blocks_ms"},
		{"kcore.measure", "kcore.measure_ms"},
		{"mcealg.analyze", "mcealg.analyze_ms"},
		{"filter.lemma1", "filter.lemma1_ms"},
	} {
		d := t.under(rp, l.span)
		t.set(l.metric, msOf(d))
		layers += d
	}
	t.set("filter.sort_dedup_ms", msOf(t.under(rp, "filter.sort_dedup")))
	t.set("decomp.hubs", float64(top.hubs))
	t.set("decomp.blocks", float64(top.blocks))
	t.set("decomp.block_nodes_max", float64(top.blockNodesMax))
	if snap.RecursionNodes > 0 {
		t.set("mcealg.ns_per_node", float64(t.under(rp, "mcealg.analyze"))/float64(snap.RecursionNodes))
	}
	t.set("core.unattributed_ms", median(localMS)-msOf(layers))
	t.set("core.unattributed_share", 1-msOf(layers)/median(localMS))

	if spec.durable {
		if err := traceDurable(t, root, e, b, median(localMS), fam, checked); err != nil {
			return nil, err
		}
	}
	checks, wrong, err := b.verify(e)
	if err != nil {
		return nil, err
	}
	t.end(root)
	return t.report(attempted+checks, failed+wrong)
}

// traceDurable takes durable_cluster's op apart: the wire alone (the two
// workers, no checkpoint), the journal alone (local executor, checkpoint),
// the resume, and the segment codec on the whole family.
func traceDurable(t *tracer, root int, e *env, b *batchInst, localMS float64, cliques [][]int32, checked func([]*mce.Result, error) error) error {
	var wire, journal, resume []float64
	var wireSnap, journalSnap, resumeSnap telemetry.Snapshot
	for i := 0; i < traceRepeats; i++ {
		var res *mce.Result
		var err error
		run := func(name string, workers bool, checkpoint *memFS) (float64, telemetry.Snapshot, error) {
			runtime.GC()
			eng := mce.NewTelemetryEngine()
			d := t.do(name, root, func() { res, err = b.enumerate(workers, checkpoint, eng) })
			return msOf(d), eng.Snapshot(), checked([]*mce.Result{res}, err)
		}
		var d float64
		if d, wireSnap, err = run("cluster.run", true, nil); err != nil {
			return err
		}
		wire = append(wire, d)
		checkpoint := newMemFS()
		if d, journalSnap, err = run("runlog.run", false, checkpoint); err != nil {
			return err
		}
		journal = append(journal, d)
		if d, resumeSnap, err = run("runlog.resume", false, checkpoint); err != nil {
			return err
		}
		resume = append(resume, d)
	}
	t.set("cluster.overhead_ms", median(wire)-localMS)
	t.set("cluster.bytes_sent", float64(wireSnap.BytesSent))
	t.set("cluster.bytes_received", float64(wireSnap.BytesReceived))
	t.set("cluster.roundtrip_p50_ms", wireSnap.RoundTripNs.Quantile(0.5)/1e6)
	t.set("cluster.task_retries", float64(wireSnap.TaskRetries))
	t.set("runlog.overhead_ms", median(journal)-localMS)
	t.set("runlog.records", float64(journalSnap.CheckpointRecords))
	t.set("runlog.journal_bytes", float64(journalSnap.CheckpointBytes))
	t.set("runlog.resume_ms", median(resume))
	t.set("runlog.replay_ms", float64(resumeSnap.CheckpointReplayNs)/1e6)
	t.set("runlog.blocks_skipped", float64(resumeSnap.CheckpointBlocksSkipped))
	return traceSegments(t, root, e, cliques)
}

// traceSegments times the segment codec: the family written as a serving
// segment directory and walked back.
func traceSegments(t *tracer, root int, e *env, cliques [][]int32) error {
	dir := filepath.Join(e.scratch, "trace-segments")
	defer os.RemoveAll(dir)
	var write, read []float64
	var size int64
	for i := 0; i < traceRepeats; i++ {
		var err error
		d := t.do("cliqstore.write", root, func() { err = cliqstore.WriteDir(dir, cliques) })
		if err != nil {
			return err
		}
		st, err := os.Stat(filepath.Join(dir, cliqstore.FamilySegment))
		if err != nil {
			return err
		}
		size = st.Size()
		write = append(write, float64(size)/1e6/d.Seconds())
		d = t.do("cliqstore.read", root, func() { _, err = cliqstore.WalkDir(dir, func([]int32) error { return nil }) })
		if err != nil {
			return err
		}
		read = append(read, float64(size)/1e6/d.Seconds())
	}
	t.set("cliqstore.segment_bytes", float64(size))
	t.set("cliqstore.write_mb_per_s", median(write))
	t.set("cliqstore.read_mb_per_s", median(read))
	return nil
}

// traceServe is the per-layer run of serve_mixed: the request loop once
// against a plain mced and once against one with -debug-addr (whose
// /debug/vars has the cache and admission counts), then the index layers
// called directly over the same request sequence.
func traceServe(e *env) (*report, error) {
	t := newTracer("serve_mixed")
	root := t.begin("trace", -1)
	attempted, failed := 0, 0
	var p50 [2]float64
	var byKind *loadResult
	var vars struct {
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	var g *mce.Graph
	for phase, debug := range []bool{false, true} {
		var s *serveInst
		var err error
		t.do("setup", root, func() { s, err = startServe(e, debug) })
		if err != nil {
			return nil, err
		}
		var res *loadResult
		t.do("load", root, func() { res, err = s.load(e.seconds / 4) })
		if err == nil && debug {
			err = getJSON(s.d.debug+"/debug/vars", &vars)
		}
		if err == nil && debug {
			var checks, wrong int
			checks, wrong, err = s.verify(e)
			attempted, failed = attempted+checks, failed+wrong
		}
		s.close()
		if err != nil {
			return nil, err
		}
		var all []float64
		for _, l := range res.latencies {
			for _, d := range l {
				all = append(all, msOf(d))
			}
		}
		p50[phase] = median(all)
		attempted, failed = attempted+len(all), failed+res.failed
		byKind, g = res, s.g
	}
	t.set("trace.overhead_share", p50[1]/p50[0]-1)
	for k, name := range kindNames {
		var ms []float64
		for _, d := range byKind.latencies[k] {
			ms = append(ms, msOf(d))
		}
		t.set("mced."+name+"_p50_ms", median(ms))
		t.set("mced."+name+"_p99_ms", quantile(ms, 0.99))
	}
	tel := vars.Telemetry
	if lookups := tel.CacheHits + tel.CacheMisses; lookups > 0 {
		t.set("mced.cache_hit_share", float64(tel.CacheHits)/float64(lookups))
	}
	t.set("mced.shed", float64(tel.QueriesShed))
	t.set("mced.timed_out", float64(tel.QueriesTimedOut))
	t.set("mced.singleflight_shared", float64(tel.SingleflightShared))

	graphFile, index := filepath.Join(e.scratch, "graph.txt"), filepath.Join(e.scratch, "index.cliqdb")
	var err error
	load := t.do("gio.load", root, func() { _, _, err = gio.LoadFile(graphFile) })
	if err != nil {
		return nil, err
	}
	t.set("gio.load_ms", msOf(load))
	var db *cliqdb.DB
	var open, build []float64
	var st *cliqdb.BuildStats
	for i := 0; i < traceRepeats; i++ {
		open = append(open, msOf(t.do("cliqdb.open", root, func() { db, err = cliqdb.Open(index) })))
		if err != nil {
			return nil, err
		}
	}
	cliques := db.Cliques()
	for i := 0; i < traceRepeats; i++ {
		build = append(build, msOf(t.do("cliqdb.build", root, func() { st, err = cliqdb.Build(cliques, index+".trace") })))
		if err != nil {
			return nil, err
		}
	}
	t.set("cliqdb.open_verify_ms", median(open))
	t.set("cliqdb.build_ms", median(build))
	t.set("cliqdb.build_mb_per_s", float64(st.Bytes)/1e6/(median(build)/1e3))
	t.set("cliqdb.index_bytes", float64(st.Bytes))
	t.set("cliqdb.bytes_per_clique", float64(st.Bytes)/float64(st.Cliques))
	if err := traceSegments(t, root, e, cliques); err != nil {
		return nil, err
	}

	// The lookups behind the first 40 000 requests of the sequence, called
	// directly: what the index costs without HTTP, admission and the cache.
	var reqs [numKinds][]request
	stream := newRequestStream(g, e.seed)
	for i := 0; i < 50*blockRequests; i++ {
		r := stream.next()
		reqs[r.kind] = append(reqs[r.kind], r)
	}
	var ids []uint32
	direct := func(kind int, call func(r request)) float64 {
		d := t.do("cliqdb."+kindNames[kind], root, func() {
			for _, r := range reqs[kind] {
				call(r)
			}
		})
		return float64(d) / float64(len(reqs[kind]))
	}
	cliquesOfNS := direct(kindCliquesOf, func(r request) { ids = db.AppendCliquesOf(ids[:0], r.v) })
	t.set("cliqdb.cliques_of_ns", cliquesOfNS)
	t.set("cliqdb.common_cliques_ns", direct(kindCommonCliques, func(r request) { ids = db.AppendCommonCliques(ids[:0], r.u, r.v) }))
	t.set("cliqdb.top_k_ns", direct(kindTopK, func(r request) { ids = db.AppendTopK(ids[:0], int(r.v)) }))
	t.set("mced.http_overhead_ms", t.values["mced.cliques_of_p50_ms"]-cliquesOfNS/1e6)
	var detect []float64
	for k := communitiesKMin; k <= communitiesKMax; k++ {
		detect = append(detect, msOf(t.do("community.detect", root, func() { _, err = community.Detect(db.Cliques(), k) })))
		if err != nil {
			return nil, err
		}
	}
	t.set("community.detect_ms", median(detect))
	t.end(root)
	return t.report(attempted, failed)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
