package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// makeBlocks decomposes g and returns its planned blocks (membership only)
// with a tree-free fixed rule.
func makeBlocks(g *graph.Graph, m int) ([]decomp.Block, dtree.Rule) {
	feasible, _ := decomp.Cut(g, m)
	return decomp.Grow(g, feasible, m, decomp.Options{}), dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}}
}

// analyzeBlocks runs blocks, planned over g, on e under rule as a plain
// batch of level 0.
func analyzeBlocks(ctx context.Context, e core.Executor, g *graph.Graph, blocks []decomp.Block, rule dtree.Rule) ([]family.Window, error) {
	return e.Analyze(ctx, g, sealedPlan(blocks), rule, 0, nil)
}

// sealedPlan is a plan already complete over blocks.
func sealedPlan(blocks []decomp.Block) *decomp.Plan {
	p := decomp.NewPlan(len(blocks))
	for _, b := range blocks {
		p.Append(b)
	}
	p.Seal()
	return p
}

func TestClusterAnalyzeMatchesLocal(t *testing.T) {
	addrs, stop, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", client.Workers())
	}

	g := gen.HolmeKim(400, 5, 0.7, 7)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)

	remote, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatal(err)
	}
	local, err := analyzeBlocks(context.Background(), &core.LocalExecutor{}, g, blocks, combo)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("result count mismatch")
	}
	for i := range remote {
		rm := map[string]bool{}
		for _, c := range remote[i].Views(nil) {
			rm[key(c)] = true
		}
		if len(rm) != local[i].Count {
			t.Fatalf("block %d: %d remote vs %d local cliques", i, len(rm), local[i].Count)
		}
		for _, c := range local[i].Views(nil) {
			if !rm[key(c)] {
				t.Fatalf("block %d: clique {%s} missing remotely", i, key(c))
			}
		}
	}
}

func TestClusterAsExecutorInFindMaxCliques(t *testing.T) {
	addrs, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.BarabasiAlbert(300, 4, 9)
	res, err := core.FindMaxCliques(g, core.Options{BlockRatio: 0.5, Executor: client})
	if err != nil {
		t.Fatal(err)
	}
	want := mcealg.ReferenceCollect(g)
	if len(res.Cliques) != len(want) {
		t.Fatalf("distributed run found %d cliques, want %d", len(res.Cliques), len(want))
	}
	wm := map[string]bool{}
	for _, c := range want {
		wm[key(c)] = true
	}
	for _, c := range res.Cliques {
		if !wm[key(c)] {
			t.Fatalf("spurious clique {%s}", key(c))
		}
	}
}

func TestWorkerFailureRequeues(t *testing.T) {
	addrs, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Kill one worker's connection mid-stream by closing it on the client
	// side before work starts; its first round trip fails and the task is
	// requeued on the survivor.
	client.mu.Lock()
	client.conns[0].conn.Close()
	client.mu.Unlock()

	g := gen.ErdosRenyi(120, 0.1, 2)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	out, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatalf("requeue failed: %v", err)
	}
	total := 0
	for _, cs := range out {
		total += cs.Count
	}
	if want := len(mcealg.ReferenceCollect(g)); total != want {
		t.Fatalf("got %d cliques after failover, want %d", total, want)
	}
	if client.Workers() != 1 {
		t.Fatalf("Workers = %d after failure, want 1", client.Workers())
	}
}

func TestAllWorkersDead(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	client.conns[0].conn.Close()
	client.mu.Unlock()

	g := gen.ErdosRenyi(30, 0.2, 3)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if _, err := analyzeBlocks(context.Background(), client, g, blocks, combo); err == nil {
		t.Fatal("expected failure with all workers dead")
	}
	// Subsequent calls fail fast.
	if _, err := analyzeBlocks(context.Background(), client, g, blocks, combo); err == nil {
		t.Fatal("expected fast failure on dead client")
	}
}

func TestApplicationErrorNotRetried(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// An oversized Matrix combo makes the worker report an application
	// error, which must fail the batch rather than loop forever.
	big := graph.Empty(mcealg.MatrixMaxNodes + 1)
	kernel := make([]int32, big.N())
	orig := make([]int32, big.N())
	for i := range orig {
		kernel[i], orig[i] = int32(i), int32(i)
	}
	blocks := []decomp.Block{{Orig: orig, Kernel: kernel}}
	matrix := dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Matrix}}
	_, err = analyzeBlocks(context.Background(), client, big, blocks, matrix)
	if err == nil || !strings.Contains(err.Error(), "Matrix") {
		t.Fatalf("err = %v, want worker Matrix failure", err)
	}
	// The worker survives an application error and can serve more work.
	g := gen.ErdosRenyi(40, 0.2, 4)
	okBlocks, okCombos := makeBlocks(g, g.MaxDegree()+1)
	if _, err := analyzeBlocks(context.Background(), client, g, okBlocks, okCombos); err != nil {
		t.Fatalf("worker unusable after application error: %v", err)
	}
}

func TestDialNoAddresses(t *testing.T) {
	if _, err := Dial(nil, ClientOptions{}); err == nil {
		t.Fatal("Dial(nil) accepted")
	}
}

func TestDialUnreachable(t *testing.T) {
	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial([]string{addr}, ClientOptions{}); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestDialPartialWorkers(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	deadAddr := ln.Addr().String()
	ln.Close()
	client, err := Dial([]string{addrs[0], deadAddr}, ClientOptions{})
	if err != nil {
		t.Fatalf("partial dial failed: %v", err)
	}
	defer client.Close()
	if client.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", client.Workers())
	}
}

func TestSimulatedLatencySlowsBatch(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := gen.ErdosRenyi(80, 0.1, 5)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if len(blocks) < 3 {
		t.Skip("not enough blocks for a timing comparison")
	}

	fast, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	t0 := time.Now()
	if _, err := analyzeBlocks(context.Background(), fast, g, blocks, combo); err != nil {
		t.Fatal(err)
	}
	fastDur := time.Since(t0)

	slow, err := Dial(addrs, ClientOptions{Latency: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	t0 = time.Now()
	if _, err := analyzeBlocks(context.Background(), slow, g, blocks, combo); err != nil {
		t.Fatal(err)
	}
	slowDur := time.Since(t0)

	if slowDur < fastDur+time.Duration(len(blocks))*2*time.Millisecond {
		t.Fatalf("latency simulation had no effect: fast=%v slow=%v blocks=%d", fastDur, slowDur, len(blocks))
	}
}

// A batch with block identities must carry one per block.
// TestIDMismatchRejected: every task carries its block's identity — the
// level and the plan index — and an answer naming another block is refused,
// not taken as this one's.
func TestIDMismatchRejected(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn) {
		defer conn.Close()
		p := newPeer(conn)
		if !p.acceptHello(protocolVersion) {
			return
		}
		for {
			task, err := p.in.Next()
			if err != nil {
				return
			}
			id, _, err := parseTaskID(task, kindTask)
			if err != nil {
				return
			}
			id.Plan++ // the neighbouring block's answer
			res, _ := encodeResult(blockResult{taskID: id, blockCounts: blockCounts{Combo: comboNone}})
			p.payload = append(p.payload[:0], res...)
			if p.send() != nil {
				return
			}
		}
	})
	client, err := Dial([]string{addr}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	g := gen.ErdosRenyi(40, 0.2, 23)
	blocks, rule := makeBlocks(g, g.MaxDegree()+1)
	_, err = client.Analyze(context.Background(), g, sealedPlan(blocks), rule, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "answered task 0 (block L2/B1), want 0 (L2/B0)") {
		t.Fatalf("an answer for another block: err %v, want it refused by its block ID", err)
	}
}

func TestEmptyBatch(t *testing.T) {
	addrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := analyzeBlocks(context.Background(), client, nil, nil, dtree.Rule{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

func TestHealthReportTracksLoad(t *testing.T) {
	addrs, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(300, 4, 0.6, 6)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if _, err := analyzeBlocks(context.Background(), client, g, blocks, combo); err != nil {
		t.Fatal(err)
	}
	rows := client.HealthReport().Workers
	if len(rows) != 2 {
		t.Fatalf("report has %d workers, want 2", len(rows))
	}
	total := 0
	for _, s := range rows {
		total += s.Tasks
		if s.Tasks > 0 && s.Busy <= 0 {
			t.Fatalf("worker %s has tasks but no busy time", s.Addr)
		}
		if s.Live != 1 {
			t.Fatalf("worker %s has %d live connections, want 1", s.Addr, s.Live)
		}
	}
	if total != len(blocks) {
		t.Fatalf("workers completed %d tasks, want %d", total, len(blocks))
	}
}

func TestReconnectRestoresCapacity(t *testing.T) {
	addrs, stop, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	client, err := Dial(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Kill one connection and let a batch retire it.
	client.mu.Lock()
	client.conns[0].conn.Close()
	client.mu.Unlock()
	g := gen.ErdosRenyi(60, 0.15, 5)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	if _, err := analyzeBlocks(context.Background(), client, g, blocks, combo); err != nil {
		t.Fatal(err)
	}
	if client.Workers() != 1 {
		t.Fatalf("Workers = %d before reconnect", client.Workers())
	}

	alive, err := client.Reconnect()
	if err != nil || alive != 2 {
		t.Fatalf("Reconnect = %d, %v; want 2 alive", alive, err)
	}
	if _, err := analyzeBlocks(context.Background(), client, g, blocks, combo); err != nil {
		t.Fatalf("batch after reconnect failed: %v", err)
	}
	total := 0
	for _, s := range client.HealthReport().Workers {
		total += s.Tasks
	}
	if total < 2*len(blocks) {
		t.Fatalf("load accounting lost across reconnect: %d", total)
	}
}

func TestServeConnOverPipe(t *testing.T) {
	// ServeConn works over any net.Conn; drive it through an in-memory
	// pipe with a raw frame conversation.
	p, cl, done := dialPipe(t)
	task := triangleTask(5)
	if err := p.sendTask(&task); err != nil {
		t.Fatal(err)
	}
	res, err := p.recvResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 5 || res.Cliques.Count != 1 || res.Err != "" {
		t.Fatalf("result = %+v", res)
	}
	if key(res.Cliques.At(0)) != "10,11,12" {
		t.Fatalf("clique = %v (global IDs expected)", res.Cliques.At(0))
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeConn returned %v on hangup", err)
	}
}
