package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mce"
	"mce/internal/runlog"
)

// TestMain lets the test binary stand in for mced: with BENCH_TEST_CHILD
// set it writes its PID, plays the part that variable names, and never
// runs a test.
func TestMain(m *testing.M) {
	role := os.Getenv("BENCH_TEST_CHILD")
	if role == "" {
		os.Exit(m.Run())
	}
	if err := os.WriteFile(os.Getenv("BENCH_TEST_PIDFILE"), []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		os.Exit(3)
	}
	switch role {
	case "exits":
		os.Exit(1)
	case "silent":
		time.Sleep(time.Minute)
	case "unready", "ready":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			os.Exit(3)
		}
		fmt.Printf("mced: serving 1 cliques over 2 vertices on http://%s/v1/\n", ln.Addr())
		http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if role == "unready" {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		}))
	}
	os.Exit(0)
}

func TestSameSeedSameGraph(t *testing.T) {
	for _, gen := range []struct {
		name     string
		generate func(int64) *mce.Graph
	}{
		{"dense_core", relabelledDenseCore},
		{"durable_cluster", durableCluster.generate},
	} {
		a, again, other := gen.generate(7), gen.generate(7), gen.generate(8)
		if runlog.GraphDigest(a) != runlog.GraphDigest(again) {
			t.Errorf("%s: seed 7 gave two different graphs", gen.name)
		}
		if runlog.GraphDigest(a) == runlog.GraphDigest(other) {
			t.Errorf("%s: seeds 7 and 8 gave the same graph", gen.name)
		}
		if a.N() != other.N() || (gen.name == "dense_core" && a.M() != other.M()) {
			t.Errorf("%s: seeds 7 and 8 gave graphs of different size: %v, %v", gen.name, a, other)
		}
	}
}

// sequence renders the first n requests of a stream.
func sequence(g *mce.Graph, seed int64, n int) string {
	var sb strings.Builder
	s := newRequestStream(g, seed)
	for i := 0; i < n; i++ {
		sb.WriteString(s.next().path())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestRequestSequence(t *testing.T) {
	g := mce.GenerateSocialNetwork(2000, 4, 0.5, 1)
	if sequence(g, 5, 3*blockRequests) != sequence(g, 5, 3*blockRequests) {
		t.Error("seed 5 gave two different request sequences")
	}
	if sequence(g, 5, blockRequests) == sequence(g, 6, blockRequests) {
		t.Error("seeds 5 and 6 gave the same request sequence")
	}

	s := newRequestStream(g, 5)
	hotVert := make(map[int32]bool)
	for _, v := range s.hotVerts {
		hotVert[v] = true
	}
	hotEdge := make(map[mce.Edge]bool)
	for _, e := range s.hotEdges {
		hotEdge[e] = true
	}
	for block := 0; block < 4; block++ {
		var kinds, hot [numKinds]int
		var ks []int32
		for i := 0; i < blockRequests; i++ {
			r := s.next()
			kinds[r.kind]++
			switch r.kind {
			case kindCliquesOf:
				if r.hot && !hotVert[r.v] {
					t.Fatalf("hot cliques-of request for cold vertex %d", r.v)
				}
			case kindCommonCliques:
				if !g.HasEdge(r.u, r.v) {
					t.Fatalf("common-cliques request for non-edge (%d, %d)", r.u, r.v)
				}
				if r.hot && !hotEdge[mce.Edge{U: r.u, V: r.v}] {
					t.Fatalf("hot common-cliques request for cold edge (%d, %d)", r.u, r.v)
				}
			case kindCommunities:
				ks = append(ks, r.v)
			}
			if r.hot {
				hot[r.kind]++
			}
		}
		// 70%, 24.5%, 5% and 0.5% of 800; 40% of each point lookup hot.
		if kinds != [numKinds]int{560, 196, 40, 4} {
			t.Errorf("block %d: kinds %v", block, kinds)
		}
		if hot != [numKinds]int{224, 78, 0, 0} {
			t.Errorf("block %d: hot requests %v", block, hot)
		}
		seen := make(map[int32]bool)
		for _, k := range ks {
			seen[k] = true
		}
		if len(ks) != 4 || !seen[4] || !seen[5] || !seen[6] || !seen[7] {
			t.Errorf("block %d: communities k = %v, want 4, 5, 6 and 7 once each", block, ks)
		}
	}
}

// startChild runs this test binary in the given role as if it were mced and
// returns what startDaemon made of it, with the child's PID.
func startChild(t *testing.T, role string, timeout time.Duration) (*daemon, int, error) {
	t.Helper()
	pidfile := filepath.Join(t.TempDir(), "pid")
	t.Setenv("BENCH_TEST_CHILD", role)
	t.Setenv("BENCH_TEST_PIDFILE", pidfile)
	d, err := startDaemon(os.Args[0], nil, false, timeout)
	raw, rerr := os.ReadFile(pidfile)
	if rerr != nil {
		t.Fatalf("%s child left no PID: %v", role, rerr)
	}
	pid, _ := strconv.Atoi(string(raw))
	return d, pid, err
}

// reaped reports whether pid is gone. A child that exited but was never
// waited for is a zombie, which still answers signal 0.
func reaped(pid int) bool { return syscall.Kill(pid, 0) == syscall.ESRCH }

func TestDaemonIsReapedOnEveryPath(t *testing.T) {
	for _, role := range []string{"exits", "silent", "unready"} {
		d, pid, err := startChild(t, role, 2*time.Second)
		if err == nil {
			d.stop()
			t.Errorf("%s child: startDaemon reported a serving daemon", role)
		}
		if !reaped(pid) {
			t.Errorf("%s child: process %d outlived the failed start (%v)", role, pid, err)
		}
	}
	d, pid, err := startChild(t, "ready", 10*time.Second)
	if err != nil {
		t.Fatalf("ready child: %v", err)
	}
	if reaped(pid) {
		t.Fatalf("ready child: process %d is gone before stop", pid)
	}
	d.stop()
	if !reaped(pid) {
		t.Errorf("ready child: process %d outlived stop", pid)
	}
}

func TestParseTotal(t *testing.T) {
	for body, want := range map[string]int{
		`{"cliques":[{"id":1,"members":[1,2],"size":2}],"total":17,"truncated":false,"vertex":3}`: 17,
		`{"communities":[],"k":4,"total":0,"truncated":false}`:                                    0,
		`deadline exceeded`: -1,
		`{"total":}`:        -1,
	} {
		if got := parseTotal([]byte(body)); got != want {
			t.Errorf("parseTotal(%s) = %d, want %d", body, got, want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program prints
// from: the driver refuses a run whose metrics differ from the declaration.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, declared []decl, defined []metricDecl) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			if got := (metricDecl{declared[i].Name, declared[i].Unit, declared[i].Better, declared[i].Bound}); got != d {
				t.Errorf("%s metric %d: declared %v, defined %v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, layerMetrics)
}
