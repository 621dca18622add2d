// The table lives in the external test package because it drives
// cluster.Client, and cluster's own tests import core.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"mce/internal/cluster"
	"mce/internal/cluster/faultconn"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

func key(c []int32) string { return fmt.Sprint(c) }

// sortedKeys canonicalises a clique family for set comparison.
func sortedKeys(cliques [][]int32) []string {
	keys := make([]string, len(cliques))
	for i, c := range cliques {
		keys[i] = key(c)
	}
	sort.Strings(keys)
	return keys
}

func openCheckpoint(t *testing.T, dir string, g *graph.Graph, opts core.Options) *runlog.Checkpoint {
	t.Helper()
	cp, err := runlog.Open(dir, core.CheckpointIdentity(g, opts), runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// countingExecutor is a LocalExecutor that counts the blocks it is handed
// still planned — the blocks some worker of it will induce — and refuses
// any that arrive induced: the engine hands executors the plan.
type countingExecutor struct {
	inner   core.LocalExecutor
	planned atomic.Int64
}

func (e *countingExecutor) Analyze(ctx context.Context, g *graph.Graph, blocks []decomp.Block, sel core.Selector, ids []runlog.BlockID, obs runlog.BatchObserver) ([]family.Window, error) {
	for i := range blocks {
		if blocks[i].Graph != nil {
			return nil, errors.New("the engine induced a block before its executor saw it")
		}
	}
	e.planned.Add(int64(len(blocks)))
	return e.inner.Analyze(ctx, g, blocks, sel, ids, obs)
}

// startFaultyWorker serves one worker behind a fault-injecting listener.
func startFaultyWorker(t *testing.T, fopts faultconn.Options) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &cluster.Worker{DrainTimeout: 100 * time.Millisecond}
	go func() { _ = w.Serve(faultconn.Listener(ln, fopts)) }()
	t.Cleanup(func() { _ = w.Close() })
	return ln.Addr().String()
}

// outcome is what a route yields, reduced to what every route must agree on.
type outcome struct {
	cliques [][]int32
	level   []int
	stats   core.Stats
}

func (o *outcome) diff(want *outcome) error {
	if len(o.cliques) != len(want.cliques) {
		return fmt.Errorf("%d cliques, want %d", len(o.cliques), len(want.cliques))
	}
	for i := range o.cliques {
		if key(o.cliques[i]) != key(want.cliques[i]) || o.level[i] != want.level[i] {
			return fmt.Errorf("clique %d is {%s} @%d, want {%s} @%d",
				i, key(o.cliques[i]), o.level[i], key(want.cliques[i]), want.level[i])
		}
	}
	got, exp := o.stats, want.stats
	if got.TotalCliques != exp.TotalCliques || got.HubCliques != exp.HubCliques || got.CoreFallback != exp.CoreFallback {
		return fmt.Errorf("stats total/hub/fallback = %d/%d/%v, want %d/%d/%v",
			got.TotalCliques, got.HubCliques, got.CoreFallback, exp.TotalCliques, exp.HubCliques, exp.CoreFallback)
	}
	if len(got.Levels) != len(exp.Levels) {
		return fmt.Errorf("%d levels, want %d", len(got.Levels), len(exp.Levels))
	}
	for i, l := range got.Levels {
		if e := exp.Levels[i]; l.Nodes != e.Nodes || l.Hubs != e.Hubs || l.Blocks != e.Blocks || l.Cliques != e.Cliques {
			return fmt.Errorf("level %d = %+v, want %+v", i, l, e)
		}
	}
	return nil
}

// TestRoutesAgree is the engine's equivalence table: routes × executors ×
// depth caps × graph families, every cell compared clique by clique (order
// and recursion level included) and on the run statistics against the
// sequential in-memory run, whose family is checked against the naive
// reference enumeration. Streaming refuses a checkpoint, so those cells
// assert the refusal instead.
//
// Every executor receives the level's blocks as planned and materialises
// them on its own goroutines: local pools of 1, 2, 4 and 8 workers, cluster
// connection runners — including ones whose attempt is hedged away from a
// straggling worker or retried after a dropped connection, each of which
// re-materialises the block on another runner — and checkpointed runs, where
// a full resume must induce nothing at all.
func TestRoutesAgree(t *testing.T) {
	addrs, stopWorkers, err := cluster.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stopWorkers()
	// A straggler (every read and write after the handshake stalls) and a
	// worker that drops every connection at its first task.
	slowAddr := startFaultyWorker(t, faultconn.Options{ReadDelay: 15 * time.Millisecond, WriteDelay: 15 * time.Millisecond, SkipOps: 3})
	droppingAddr := startFaultyWorker(t, faultconn.Options{CloseProb: 1, SkipOps: 3})
	wire := telemetry.NewEngine() // what the hedged and retried columns did, summed over their cells
	var planned, resumedPlanned atomic.Int64

	graphs := []struct {
		name string
		g    *graph.Graph
		m    int // small enough that the uncapped recursion needs ≥ 3 levels
	}{
		{"ErdosRenyi", gen.ErdosRenyi(150, 0.1, 3), 14},
		{"HolmeKim", gen.HolmeKim(600, 5, 0.7, 37), 10},
		{"PlantedCliques", gen.PlantCliques(gen.BarabasiAlbert(300, 3, 5), 6, 5, 9, 11), 9},
		{"TheoremOneChain", gen.HardChain(30, 4, 0), 5},
	}

	// An executor column prepares the options of one run; the returned
	// function releases what it opened.
	type executor struct {
		name         string
		checkpointed bool
		prepare      func(t *testing.T, g *graph.Graph, opts *core.Options) (release func())
	}
	local := func(p int) func(*testing.T, *graph.Graph, *core.Options) func() {
		return func(_ *testing.T, _ *graph.Graph, opts *core.Options) func() {
			opts.Parallelism = p
			return func() {}
		}
	}
	dial := func(copts cluster.ClientOptions, addrs ...string) func(*testing.T, *graph.Graph, *core.Options) func() {
		return func(t *testing.T, _ *graph.Graph, opts *core.Options) func() {
			client, err := cluster.Dial(addrs, copts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Executor = client
			return func() { client.Close() }
		}
	}
	executors := []executor{
		{"local-p1", false, local(1)},
		{"local-p2", false, local(2)},
		{"local-p4", false, local(4)},
		{"local-p8", false, local(8)},
		{"cluster-2", false, dial(cluster.ClientOptions{}, addrs...)},
		{"cluster-hedged", false, dial(cluster.ClientOptions{Hedge: true, Metrics: wire}, addrs[0], addrs[1], slowAddr)},
		{"cluster-retried", false, dial(cluster.ClientOptions{Metrics: wire}, addrs[0], addrs[1], droppingAddr)},
		{"checkpoint-fresh", true, func(t *testing.T, g *graph.Graph, opts *core.Options) func() {
			cp := openCheckpoint(t, t.TempDir(), g, *opts)
			exec := &countingExecutor{}
			opts.Checkpoint, opts.Executor = cp, exec
			return func() { planned.Add(exec.planned.Load()); cp.Close() }
		}},
		{"checkpoint-resumed", true, func(t *testing.T, g *graph.Graph, opts *core.Options) func() {
			// A completed checkpointed run, then a resume that must answer
			// from the journal and the level logs alone.
			dir := t.TempDir()
			first := *opts
			first.Checkpoint = openCheckpoint(t, dir, g, *opts)
			if _, err := core.FindMaxCliques(g, first); err != nil {
				t.Fatal(err)
			}
			first.Checkpoint.Close()
			cp := openCheckpoint(t, dir, g, *opts)
			exec := &countingExecutor{}
			opts.Checkpoint, opts.Executor, opts.Metrics = cp, exec, telemetry.NewEngine()
			return func() {
				resumedPlanned.Add(exec.planned.Load() + opts.Metrics.Snapshot().InduceNs)
				cp.Close()
			}
		}},
	}

	routes := []struct {
		name string
		run  func(g *graph.Graph, opts core.Options) (*outcome, error)
	}{
		{"FindMaxCliques", func(g *graph.Graph, opts core.Options) (*outcome, error) {
			res, err := core.FindMaxCliques(g, opts)
			if err != nil {
				return nil, err
			}
			return &outcome{res.Cliques, res.Level, res.Stats}, nil
		}},
		{"Stream", func(g *graph.Graph, opts core.Options) (*outcome, error) {
			o := &outcome{}
			stats, err := core.Stream(g, opts, func(c []int32, level int) {
				o.cliques = append(o.cliques, append([]int32(nil), c...))
				o.level = append(o.level, level)
			})
			if err != nil {
				return nil, err
			}
			o.stats = *stats
			return o, nil
		}},
	}

	for _, gr := range graphs {
		for _, maxLevels := range []int{0, 1} {
			base := core.Options{BlockSize: gr.m, MaxLevels: maxLevels, Parallelism: 1}
			res, err := core.FindMaxCliques(gr.g, base)
			if err != nil {
				t.Fatal(err)
			}
			if got, ref := sortedKeys(res.Cliques), sortedKeys(mcealg.ReferenceCollect(gr.g)); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("%s: %d cliques, the naive reference finds %d (or other ones)", gr.name, len(got), len(ref))
			}
			want := &outcome{res.Cliques, res.Level, res.Stats}
			switch levels := len(res.Stats.Levels); {
			case maxLevels == 0 && levels < 3:
				t.Fatalf("%s: fixture needs only %d levels, want ≥ 3", gr.name, levels)
			case maxLevels == 1 && (levels != 2 || !res.Stats.CoreFallback):
				t.Fatalf("%s: MaxLevels=1 ran %d levels with CoreFallback=%v, want 2 and true",
					gr.name, levels, res.Stats.CoreFallback)
			}
			for _, ex := range executors {
				for _, route := range routes {
					name := fmt.Sprintf("%s/maxlevels=%d/%s/%s", gr.name, maxLevels, ex.name, route.name)
					t.Run(name, func(t *testing.T) {
						opts := core.Options{BlockSize: gr.m, MaxLevels: maxLevels}
						defer ex.prepare(t, gr.g, &opts)()
						got, err := route.run(gr.g, opts)
						if ex.checkpointed && route.name == "Stream" {
							if err == nil {
								t.Fatal("streaming accepted a checkpoint")
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if err := got.diff(want); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
	if snap := wire.Snapshot(); snap.HedgedDispatches == 0 || snap.TaskRetries == 0 {
		t.Fatalf("the faulty columns exercised nothing: %d hedged dispatches, %d retries", snap.HedgedDispatches, snap.TaskRetries)
	}
	if planned.Load() == 0 || resumedPlanned.Load() != 0 {
		t.Fatalf("fresh checkpointed runs handed %d planned blocks to their executor, full resumes %d (want > 0 and 0: a resume induces nothing)",
			planned.Load(), resumedPlanned.Load())
	}
}
