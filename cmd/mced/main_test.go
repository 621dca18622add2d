package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
)

// TestRefusesCheckpointSegments pins the startup guard: -segments pointed
// at a run checkpoint's directory or into it (resume state, not the final
// clique family) must fail configuration immediately, before a self-heal
// or /v1/rebuild could bake wrong cliques into an index.
func TestRefusesCheckpointSegments(t *testing.T) {
	ckpt := t.TempDir()
	segDir := filepath.Join(ckpt, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "journal.mcej"), []byte("j"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{ckpt, segDir} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-db", filepath.Join(ckpt, "x.cliqdb"), "-segments", dir, "-listen", "127.0.0.1:0"},
			&out, &errBuf, make(chan os.Signal, 1), make(chan [2]string, 1))
		if code != 2 || !strings.Contains(errBuf.String(), "checkpoint") {
			t.Fatalf("-segments %s: code=%d stderr=%q, want config refusal naming the checkpoint contract", dir, code, errBuf.String())
		}
	}
}

// startDaemon launches run() in a goroutine and waits for it to come up.
// The returned stop function sends one SIGTERM and waits for a clean exit.
func startDaemon(t *testing.T, args []string) (base string, debug string, stop func() int) {
	t.Helper()
	sig := make(chan os.Signal, 2)
	started := make(chan [2]string, 1)
	var out, errBuf bytes.Buffer
	code := make(chan int, 1)
	go func() { code <- run(args, &out, &errBuf, sig, started) }()
	select {
	case addrs := <-started:
		stop = func() int {
			sig <- syscall.SIGTERM
			select {
			case c := <-code:
				return c
			case <-time.After(10 * time.Second):
				t.Fatalf("daemon did not exit after SIGTERM\nstdout: %s\nstderr: %s", out.String(), errBuf.String())
				return -1
			}
		}
		return "http://" + addrs[0], addrs[1], stop
	case c := <-code:
		t.Fatalf("daemon exited with %d before serving\nstdout: %s\nstderr: %s", c, out.String(), errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	return "", "", nil
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
}

type cliquesResp struct {
	Total     int  `json:"total"`
	Truncated bool `json:"truncated"`
	Cliques   []struct {
		ID      uint32  `json:"id"`
		Size    int     `json:"size"`
		Members []int32 `json:"members"`
	} `json:"cliques"`
}

var testCliques = [][]int32{
	{0, 1, 2}, {1, 2, 3}, {2, 3, 4, 5}, {4, 6}, {5, 6, 7},
}

func buildTestIndex(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "test.cliqdb")
	if _, err := cliqdb.Build(testCliques, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServeQueriesEndToEnd(t *testing.T) {
	dbPath := buildTestIndex(t, t.TempDir())
	base, _, stop := startDaemon(t, []string{"-db", dbPath, "-listen", "127.0.0.1:0"})

	// cliques-of: brute-force cross-check for every vertex, including one
	// past the ID space (valid query, empty answer).
	for v := int32(0); v <= 9; v++ {
		var got cliquesResp
		getJSON(t, fmt.Sprintf("%s/v1/cliques-of?v=%d", base, v), &got)
		var want int
		for _, c := range testCliques {
			for _, m := range c {
				if m == v {
					want++
				}
			}
		}
		if got.Total != want || len(got.Cliques) != want {
			t.Fatalf("cliques-of %d: total=%d listed=%d, want %d", v, got.Total, len(got.Cliques), want)
		}
		for _, c := range got.Cliques {
			found := false
			for _, m := range c.Members {
				if m == v {
					found = true
				}
			}
			if !found || c.Size != len(c.Members) {
				t.Fatalf("cliques-of %d returned %+v", v, c)
			}
		}
	}

	// common-cliques: adjacent pair, non-adjacent pair.
	var common cliquesResp
	getJSON(t, base+"/v1/common-cliques?u=2&v=3", &common)
	if common.Total != 2 {
		t.Fatalf("common-cliques(2,3) = %d, want 2", common.Total)
	}
	getJSON(t, base+"/v1/common-cliques?u=0&v=7", &common)
	if common.Total != 0 {
		t.Fatalf("common-cliques(0,7) = %d, want 0", common.Total)
	}

	// top-k: sizes descending, largest first.
	var top cliquesResp
	getJSON(t, base+"/v1/top-k?k=3", &top)
	if len(top.Cliques) != 3 || top.Cliques[0].Size != 4 {
		t.Fatalf("top-k = %+v", top)
	}
	if !sort.SliceIsSorted(top.Cliques, func(i, j int) bool { return top.Cliques[i].Size > top.Cliques[j].Size }) {
		t.Fatalf("top-k not size-descending: %+v", top.Cliques)
	}

	// communities: k=2 percolation connects {0..7} minus nothing — every
	// clique chains through shared edges except the {4,6},{5,6,7} arm,
	// which still shares nodes 4,5,6. Just sanity-check shape and coverage.
	var comms struct {
		Total       int `json:"total"`
		Communities []struct {
			Nodes []int32 `json:"nodes"`
		} `json:"communities"`
	}
	getJSON(t, base+"/v1/communities?k=2", &comms)
	if comms.Total == 0 {
		t.Fatal("communities k=2 found nothing")
	}

	// Bad inputs are 400s, wrong method is 405, unknown path is 404.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{base + "/v1/cliques-of?v=-1", 400},
		{base + "/v1/cliques-of", 400},
		{base + "/v1/common-cliques?u=1", 400},
		{base + "/v1/top-k?k=0", 400},
		{base + "/v1/communities?k=1", 400},
		{base + "/v1/rebuild", 405}, // GET on a POST endpoint
		{base + "/v1/nope", 404},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}

	// Health endpoints.
	for _, p := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", p, resp.StatusCode)
		}
	}

	if code := stop(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}
}

func TestResultsTruncatedAtMaxResults(t *testing.T) {
	dbPath := buildTestIndex(t, t.TempDir())
	base, _, stop := startDaemon(t, []string{"-db", dbPath, "-listen", "127.0.0.1:0", "-max-results", "1"})
	defer stop()

	var got cliquesResp
	getJSON(t, base+"/v1/cliques-of?v=2", &got) // vertex 2 is in 3 cliques
	if !got.Truncated || len(got.Cliques) != 1 || got.Total != 3 {
		t.Fatalf("max-results=1: truncated=%v listed=%d total=%d", got.Truncated, len(got.Cliques), got.Total)
	}
}

// TestSelfHealsCorruptIndexAtStartup flips a byte in the live index and
// asserts the daemon, given the segment directory, rebuilds and serves
// correct answers instead of failing to start.
func TestSelfHealsCorruptIndexAtStartup(t *testing.T) {
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, filepath.Join(segDir, "L000-B000000.cliq"), testCliques)
	dbPath := filepath.Join(dir, "test.cliqdb")
	if _, err := cliqdb.CompileSegments(segDir, dbPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(dbPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	base, _, stop := startDaemon(t, []string{"-db", dbPath, "-segments", segDir, "-listen", "127.0.0.1:0"})
	defer stop()
	var got cliquesResp
	getJSON(t, base+"/v1/cliques-of?v=2", &got)
	if got.Total != 3 {
		t.Fatalf("after self-heal, cliques-of 2 = %d, want 3", got.Total)
	}
}

// TestRebuildSwapsInNewSegments verifies the degraded-mode rebuild path:
// new segments appear, POST /v1/rebuild recompiles, and answers reflect the
// new content (including a cached query, proving the swap purged the cache).
func TestRebuildSwapsInNewSegments(t *testing.T) {
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, filepath.Join(segDir, "L000-B000000.cliq"), testCliques)
	dbPath := filepath.Join(dir, "test.cliqdb")
	if _, err := cliqdb.CompileSegments(segDir, dbPath); err != nil {
		t.Fatal(err)
	}

	base, _, stop := startDaemon(t, []string{"-db", dbPath, "-segments", segDir, "-listen", "127.0.0.1:0"})
	defer stop()

	var got cliquesResp
	getJSON(t, base+"/v1/cliques-of?v=9", &got) // now cached
	if got.Total != 0 {
		t.Fatalf("cliques-of 9 before rebuild = %d, want 0", got.Total)
	}

	writeSegment(t, filepath.Join(segDir, "L001-B000000.cliq"), [][]int32{{8, 9, 10}})
	resp, err := http.Post(base+"/v1/rebuild", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("rebuild = %d: %s", resp.StatusCode, body)
	}

	getJSON(t, base+"/v1/cliques-of?v=9", &got)
	if got.Total != 1 {
		t.Fatalf("cliques-of 9 after rebuild = %d, want 1 (stale cache served?)", got.Total)
	}
}

func writeSegment(t *testing.T, path string, cliques [][]int32) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cliqstore.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cliques {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// slowDB is a queryDB whose lookups block for a configured latency — the
// lever the overload and drain tests pull to hold requests in flight.
type slowDB struct{ delay time.Duration }

func (s *slowDB) NumVertices() int32                         { return 1 << 20 }
func (s *slowDB) NumCliques() int                            { return 1 }
func (s *slowDB) CliqueSize(uint32) int                      { return 2 }
func (s *slowDB) Digest() uint32                             { return 0 }
func (s *slowDB) AppendClique(dst []int32, _ uint32) []int32 { return append(dst, 0, 1) }

func (s *slowDB) AppendCliquesOf(dst []uint32, _ int32) []uint32 {
	time.Sleep(s.delay)
	return append(dst, 0)
}
func (s *slowDB) AppendCommonCliques(dst []uint32, _, _ int32) []uint32 { return append(dst, 0) }
func (s *slowDB) AppendTopK(dst []uint32, _ int) []uint32               { return append(dst, 0) }
func (s *slowDB) AppendMinSize(dst []uint32, k int) []uint32 {
	if k > 2 {
		return dst
	}
	return append(dst, 0)
}

// TestOverloadShedsWith429 drives far more concurrency than -max-inflight
// allows and asserts the contract under overload: excess load is shed with
// 429 + Retry-After, nothing becomes a 5xx, and every admitted request
// completes well inside its deadline.
func TestOverloadShedsWith429(t *testing.T) {
	testHookDB = &slowDB{delay: 60 * time.Millisecond}
	defer func() { testHookDB = nil }()
	base, _, stop := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-max-inflight", "2", "-deadline", "5s", "-cache", "0",
	})
	defer stop()

	const clients = 40
	deadline := 5 * time.Second
	var (
		mu        sync.Mutex
		n200      int
		n429      int
		nOther    []int
		latencies []time.Duration
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			// Distinct vertices so neither the cache nor singleflight
			// collapses the load before admission sees it.
			resp, err := http.Get(fmt.Sprintf("%s/v1/cliques-of?v=%d", base, i))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			el := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case 200:
				n200++
				latencies = append(latencies, el)
			case 429:
				n429++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				nOther = append(nOther, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if n429 == 0 {
		t.Fatalf("no 429s across %d clients with max-inflight=2", clients)
	}
	if len(nOther) != 0 {
		t.Fatalf("unexpected statuses under overload: %v", nOther)
	}
	if n200 == 0 {
		t.Fatal("overload shed everything; some requests should be admitted")
	}
	for _, l := range latencies {
		if l > deadline {
			t.Fatalf("admitted request took %v, past the %v deadline", l, deadline)
		}
	}
}

// TestDeadlineReturns504 asserts a query slower than -deadline is answered
// with 504 instead of holding the connection.
func TestDeadlineReturns504(t *testing.T) {
	testHookDB = &slowDB{delay: 2 * time.Second}
	defer func() { testHookDB = nil }()
	base, _, stop := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-deadline", "50ms", "-cache", "0", "-drain-timeout", "10s",
	})
	resp, err := http.Get(base + "/v1/cliques-of?v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow query = %d, want 504", resp.StatusCode)
	}
	if code := stop(); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

// TestDrainCompletesInflight sends SIGTERM while a request is in flight and
// asserts the request still completes with 200 and the daemon exits 0.
func TestDrainCompletesInflight(t *testing.T) {
	testHookDB = &slowDB{delay: 400 * time.Millisecond}
	defer func() { testHookDB = nil }()
	base, _, stop := startDaemon(t, []string{
		"-listen", "127.0.0.1:0", "-deadline", "5s", "-drain-timeout", "10s",
	})

	status := make(chan int, 1)
	//lint:ignore golifecycle the status channel is buffered (cap 1) so the send never blocks; the test body always drains it
	go func() {
		resp, err := http.Get(base + "/v1/cliques-of?v=1")
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the handler
	code := stop()
	if got := <-status; got != 200 {
		t.Fatalf("in-flight request finished with %d across drain, want 200", got)
	}
	if code != 0 {
		t.Fatalf("drained exit code %d", code)
	}
}
