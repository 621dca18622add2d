package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"mce/internal/cluster"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

// startWorker runs the command under test and returns its addresses, a
// signal function and the exit-code channel.
func startWorker(t *testing.T, args ...string) (workerAddr, debugAddr string, sig chan os.Signal, exit chan int, out *bytes.Buffer) {
	t.Helper()
	sig = make(chan os.Signal, 2)
	exit = make(chan int, 1)
	started := make(chan [2]string, 1)
	out = &bytes.Buffer{}
	go func() { exit <- run(args, out, io.Discard, sig, started) }()
	select {
	case addrs := <-started:
		return addrs[0], addrs[1], sig, exit, out
	case code := <-exit:
		t.Fatalf("worker exited early with %d: %s", code, out)
		return "", "", nil, nil, nil
	}
}

func TestWorkerServesTasksAndDebugVars(t *testing.T) {
	workerAddr, debugAddr, sig, exit, _ := startWorker(t,
		"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	if debugAddr == "" {
		t.Fatal("no debug address bound")
	}

	// Ship a batch of real blocks through the worker.
	client, err := cluster.Dial([]string{workerAddr}, cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(50, 0.25, 3)
	m := g.MaxDegree() + 1
	feasible, _ := decomp.Cut(g, m)
	plan := decomp.NewPlan(len(feasible))
	decomp.GrowSeq(g, feasible, m, decomp.Options{})(func(b decomp.Block) bool {
		plan.Append(b)
		return true
	})
	plan.Seal()
	rule := dtree.Rule{Mode: dtree.RuleFixed, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}}
	out, err := client.Analyze(context.Background(), g, plan, rule, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != plan.Len() {
		t.Fatalf("got %d results for %d blocks", len(out), plan.Len())
	}
	client.Close()

	// The debug endpoint reflects the served tasks as JSON.
	resp, err := http.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var doc struct {
		Telemetry struct {
			TasksServed    int64 `json:"tasks_served"`
			BlocksAnalyzed int64 `json:"blocks_analyzed"`
			RecursionNodes int64 `json:"recursion_nodes"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("vars not JSON: %v\n%s", err, body)
	}
	if doc.Telemetry.TasksServed != int64(plan.Len()) {
		t.Fatalf("tasks_served = %d, want %d", doc.Telemetry.TasksServed, plan.Len())
	}
	if doc.Telemetry.BlocksAnalyzed == 0 || doc.Telemetry.RecursionNodes == 0 {
		t.Fatalf("algorithm counters empty: %+v", doc.Telemetry)
	}

	// pprof rides along.
	resp, err = http.Get("http://" + debugAddr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	// Graceful shutdown on the first signal.
	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

func TestWorkerDebugDisabledByDefault(t *testing.T) {
	_, debugAddr, sig, exit, out := startWorker(t, "-listen", "127.0.0.1:0")
	if debugAddr != "" {
		t.Fatalf("debug server started without -debug-addr: %s", debugAddr)
	}
	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

func TestWorkerBadFlags(t *testing.T) {
	if code := run([]string{"-no-such-flag"}, io.Discard, io.Discard, nil, nil); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-listen", "256.256.256.256:1"}, io.Discard, io.Discard, nil, nil); code != 1 {
		t.Fatalf("bad listen exit = %d, want 1", code)
	}
}
