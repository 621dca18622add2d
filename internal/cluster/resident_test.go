package cluster

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"mce/internal/core"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// TestGraphStoreEvictsLeastRecentlyUsed: a store past its cap drops the
// graph used longest ago, and a get counts as a use. The store sizes a
// graph by its address, so three small graphs addressed as large ones
// stand in for graphs the cap cannot hold together.
func TestGraphStoreEvictsLeastRecentlyUsed(t *testing.T) {
	a, b, c := graph.Complete(4), graph.Complete(5), graph.Empty(6)
	third := int64(residentGraphBytes/3+1) / 8 // edges that make a graph a third of the cap, and a little more
	ka, kb, kc := keyOf(a), keyOf(b), keyOf(c)
	ka.M, kb.M, kc.M = third, third, third
	var s graphStore
	s.put(ka, a)
	s.put(kb, b)
	if s.get(ka) != a {
		t.Fatal("the store lost a graph under its cap")
	}
	s.put(kc, c) // past the cap: b is the least recently used
	if s.get(kb) != nil || s.get(ka) != a || s.get(kc) != c {
		t.Fatalf("after the third graph the store holds %v", s.graphs)
	}
	if want := ka.size() + kc.size(); s.held != want {
		t.Fatalf("the store counts %d bytes held, want %d", s.held, want)
	}
	s.put(kc, c) // already held: nothing changes but its use
	if s.held != ka.size()+kc.size() || len(s.graphs) != 2 {
		t.Fatalf("a repeated put changed the store: %d bytes, %d graphs", s.held, len(s.graphs))
	}
}

// evictingObserver empties a worker's graph store once after blocks have
// completed, the way a worker restarted or pressed for memory loses it.
type evictingObserver struct {
	w     *Worker
	after int
	done  int
}

func (o *evictingObserver) BlockDispatched(runlog.BlockID, uint64) (family.Window, bool) {
	return family.Window{}, false
}

func (o *evictingObserver) BlockDone(runlog.BlockID, uint64, family.Window) error {
	if o.done++; o.done == o.after {
		o.w.graphs.mu.Lock()
		o.w.graphs.graphs, o.w.graphs.held = nil, 0
		o.w.graphs.mu.Unlock()
	}
	return nil
}

// TestWorkerLosesGraphMidBatch: a worker that no longer holds the level
// graph partway through a batch answers "graph unknown", is sent the graph
// again on the same connection without spending a retry, and the batch
// completes with the local family.
func TestWorkerLosesGraphMidBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{}
	go func() { _ = w.Serve(ln) }()
	t.Cleanup(func() { _ = w.Close() })
	met := telemetry.NewEngine()
	client, err := Dial([]string{ln.Addr().String()}, ClientOptions{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(300, 5, 0.7, 11)
	blocks, rule := makeBlocks(g, g.MaxDegree()+1)
	if len(blocks) < 4 {
		t.Fatalf("%d blocks: too few to lose the graph mid-batch", len(blocks))
	}
	obs := &evictingObserver{w: w, after: len(blocks) / 2}
	remote, err := client.Analyze(context.Background(), g, sealedPlan(blocks), rule, 0, obs)
	if err != nil {
		t.Fatalf("batch with the graph lost midway failed: %v", err)
	}
	local, err := analyzeBlocks(context.Background(), &core.LocalExecutor{}, g, blocks, rule)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cliqueSet(t, remote), cliqueSet(t, local); !reflect.DeepEqual(got, want) {
		t.Fatalf("the batch found %d cliques, the local executor %d", len(got), len(want))
	}
	offsets, flat := g.CSR()
	level, err := durable.AppendCSR(nil, durable.CSR{Offsets: offsets, Flat: flat})
	if err != nil {
		t.Fatal(err)
	}
	s := met.Snapshot()
	if s.TaskRetries != 0 || s.CorruptResults != 0 || s.PoisonTasks != 0 {
		t.Fatalf("losing the graph cost retries or verdicts: %+v", s)
	}
	if s.BytesSent < int64(2*len(level)) {
		t.Fatalf("%d bytes sent: the %d-byte level graph did not travel twice", s.BytesSent, len(level))
	}
	if s.RoundTripNs.Count != int64(len(blocks)) {
		t.Fatalf("%d round trips recorded for %d blocks", s.RoundTripNs.Count, len(blocks))
	}
}

// TestDistributedCountsMatchLocal: the combo picks, per-combo blocks,
// recursion nodes and pivot selections a coordinator reports for a
// distributed run — plain, or hedged against a straggler whose losing
// answers bring counts of their own — equal those of a LocalExecutor run,
// on a sparse graph of several levels and on the dense terminal core of
// G(226, 0.5).
func TestDistributedCountsMatchLocal(t *testing.T) {
	addrs, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	slowAddr := startSlowWorker(t, 15*time.Millisecond)
	var hedged int64
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		m    int
	}{
		{"HolmeKim(8000,5,0.7)", gen.HolmeKim(8000, 5, 0.7, 7), 40},
		{"G(226,0.5)", gen.ErdosRenyi(226, 0.5, 2016), 0},
	} {
		// The client shares the run's engine, as mce.WithWorkers wires it.
		run := func(exec core.Executor, met *telemetry.Engine) (*core.Result, telemetry.Snapshot) {
			t.Helper()
			res, err := core.FindMaxCliques(tc.g, core.Options{BlockSize: tc.m, Parallelism: 2, Executor: exec, Metrics: met})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res, met.Snapshot()
		}
		want, local := run(nil, telemetry.NewEngine())
		if local.RecursionNodes == 0 || local.PivotSelections == 0 {
			t.Fatalf("%s: the local run counted nothing: %+v", tc.name, local)
		}
		for _, col := range []struct {
			name  string
			opts  ClientOptions
			addrs []string
		}{
			{"plain", ClientOptions{}, addrs},
			{"hedged", ClientOptions{Hedge: true}, append([]string{slowAddr}, addrs...)},
		} {
			met := telemetry.NewEngine()
			col.opts.Metrics = met
			client, err := Dial(col.addrs, col.opts)
			if err != nil {
				t.Fatal(err)
			}
			res, snap := run(client, met)
			client.Close()
			hedged += snap.HedgedDispatches
			if len(res.Cliques) != len(want.Cliques) {
				t.Fatalf("%s %s: %d cliques, want %d", tc.name, col.name, len(res.Cliques), len(want.Cliques))
			}
			if snap.RecursionNodes != local.RecursionNodes || snap.PivotSelections != local.PivotSelections {
				t.Errorf("%s %s: %d recursion nodes and %d pivots, the local run %d and %d",
					tc.name, col.name, snap.RecursionNodes, snap.PivotSelections, local.RecursionNodes, local.PivotSelections)
			}
			if snap.BlocksAnalyzed != local.BlocksAnalyzed || !sameComboCounts(snap.Combos, local.Combos) {
				t.Errorf("%s %s: %d blocks by combo %+v, the local run %d by %+v",
					tc.name, col.name, snap.BlocksAnalyzed, snap.Combos, local.BlocksAnalyzed, local.Combos)
			}
		}
	}
	if hedged == 0 {
		t.Fatal("the hedged column never hedged: its counts say nothing about hedge losers")
	}
}

// sameComboCounts compares per-combo picks and blocks; times differ.
func sameComboCounts(a, b []telemetry.ComboStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Combo != b[i].Combo || a[i].Picks != b[i].Picks || a[i].Blocks != b[i].Blocks {
			return false
		}
	}
	return true
}
