package telemetry

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestNilEngineIsOff is the gate that keeps a nil *Engine safe to call from
// any instrumentation site: Engine exports no field a caller could
// dereference, and every exported method of *Engine, called on a nil
// receiver with zero-value arguments, neither panics nor returns anything
// but zero values.
func TestNilEngineIsOff(t *testing.T) {
	et := reflect.TypeOf(Engine{})
	for i := 0; i < et.NumField(); i++ {
		if f := et.Field(i); f.IsExported() {
			t.Errorf("Engine exports field %s: a nil engine would panic where it is read", f.Name)
		}
	}
	nilEngine := reflect.ValueOf((*Engine)(nil))
	pt := nilEngine.Type()
	if pt.NumMethod() == 0 {
		t.Fatal("*Engine has no exported methods")
	}
	for i := 0; i < pt.NumMethod(); i++ {
		m := pt.Method(i)
		args := []reflect.Value{nilEngine}
		for j := 1; j < m.Type.NumIn(); j++ {
			args = append(args, reflect.Zero(m.Type.In(j)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Engine)(nil).%s panics: %v", m.Name, r)
				}
			}()
			for k, out := range m.Func.Call(args) {
				if !out.IsZero() {
					t.Errorf("(*Engine)(nil).%s result %d = %v, want the zero value", m.Name, k, out.Interface())
				}
			}
		}()
	}
}

// metricConstants reads the Counter, Gauge and Latency constants from
// engine.go in declaration order, which is their iota value; the unexported
// num* sentinels are left out.
func metricConstants(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		id, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				if n.IsExported() {
					names[id.Name] = append(names[id.Name], n.Name)
				}
			}
		}
	}
	return names
}

// TestSnapshotReadsEachMetric drives every counter, gauge and histogram to a
// value of its own and requires the Snapshot field of the same name to read
// exactly that value, so a constant wired to the wrong field fails here.
func TestSnapshotReadsEachMetric(t *testing.T) {
	consts := metricConstants(t)
	if len(consts["Counter"]) != int(numCounters) || len(consts["Gauge"]) != int(numGauges) || len(consts["Latency"]) != int(numLatencies) {
		t.Fatalf("parsed %d counters, %d gauges, %d latencies; the engine has %d, %d, %d",
			len(consts["Counter"]), len(consts["Gauge"]), len(consts["Latency"]), numCounters, numGauges, numLatencies)
	}
	e := NewEngine()
	want := map[string]int64{}
	for i, name := range consts["Counter"] {
		e.Add(Counter(i), int64(1000+i))
		want[name] = int64(1000 + i)
	}
	for i, name := range consts["Gauge"] {
		e.Set(Gauge(i), int64(-1-i))
		want[name] = int64(-1 - i)
	}
	for i, name := range consts["Latency"] {
		for k := 0; k <= i; k++ {
			e.Observe(Latency(i), time.Microsecond)
		}
		want[name] = int64(i + 1) // the histogram's observation count
	}
	s := reflect.ValueOf(e.Snapshot())
	st := s.Type()
	seen := 0
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		var got int64
		switch v := s.Field(i).Interface().(type) {
		case int64:
			got = v
		case HistogramSnapshot:
			got = v.Count
		default:
			continue
		}
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("Snapshot.%s has no metric constant of its name", f.Name)
			continue
		}
		seen++
		if got != w {
			t.Errorf("Snapshot.%s = %d, want %d", f.Name, got, w)
		}
	}
	if seen != len(want) {
		t.Errorf("Snapshot has %d metric fields, the engine %d constants", seen, len(want))
	}
}

// TestSnapshotJSONKeys pins the sorted key list of a Snapshot's JSON: the
// benchmark's trace, mced's /debug/vars, mcestats and mcebench -smoke read
// these names.
func TestSnapshotJSONKeys(t *testing.T) {
	e := NewEngine()
	e.ComboPicked(0)
	e.EndpointObserved(0, "cliques-of", time.Millisecond, 200)
	data, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"backpressure_ns", "backpressure_pauses", "block_ns", "blocks_analyzed",
		"blocks_built", "blocks_ns", "border_nodes", "bytes_received", "bytes_sent",
		"cache_hits", "cache_misses", "checkpoint_barrier_wait_ns",
		"checkpoint_blocks_skipped", "checkpoint_bytes", "checkpoint_commit_blocks",
		"checkpoint_commits", "checkpoint_degraded", "checkpoint_log_bytes",
		"checkpoint_records", "checkpoint_replay_ns", "cliques_found", "combos",
		"corrupt_results", "cut_ns", "degraded_serves", "endpoints",
		"family_arena_bytes", "family_members", "filter_ns", "hedge_wasted",
		"hedge_wins", "hedged_dispatches", "hub_cliques_filtered", "index_rebuilds",
		"induce_ns", "kernel_nodes", "levels_completed", "pivot_selections",
		"poison_tasks", "queries_admitted", "queries_shed", "queries_timed_out",
		"query_ns", "queue_depth", "reconnects", "recursion_nodes", "round_trip_ns",
		"select_ns", "singleflight_shared", "task_errors", "task_panics",
		"task_retries", "tasks_in_flight", "tasks_served", "visited_nodes",
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("Snapshot JSON keys changed:\n got %q\nwant %q", keys, want)
	}
}
