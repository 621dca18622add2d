package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mce"
	"mce/internal/cliqdb"
	"mce/internal/cliqstore"
	"mce/internal/community"
)

// The four query kinds of mced, in the order the per-endpoint metrics are
// printed.
const (
	kindCliquesOf = iota
	kindCommonCliques
	kindTopK
	kindCommunities
	numKinds
)

var kindNames = [numKinds]string{"cliques_of", "common_cliques", "top_k", "communities"}

// The request sequence is made of blocks of 800 with exact shares, shuffled
// inside the block: 70% cliques-of, 24.5% common-cliques, 5% top-k and 0.5%
// communities, one for each k in 4..7. Exact shares, not draws, because one
// communities query costs a hundred point lookups and a few more or fewer
// of them would show in work_per_s. 40% of the point lookups go to a hot
// set of 32 keys, 24 vertices and 8 edges, the rest is uniform over all
// vertices and all edges. The hot keys are taken by degree rank, evenly
// spaced through the top tenth, and not drawn: a drawn hot set that holds
// a large hub on one seed and none on the next moves the answer sizes, and
// with them both metrics, by a fifth.
//
// The key space sits away from mced's 256-entry cache on both sides, so
// the hit share is the workload's and not the interleaving's: a hot or a
// top-k key recurs within a hundred requests, behind some 50 distinct cold
// keys, and always hits; a cold key almost never recurs; a communities key
// recurs every 800 requests, behind some 450 cold keys, and always misses.
const (
	blockRequests   = 800
	blockCliquesOf  = 560
	blockCommon     = 196
	blockTopK       = 40
	hotCliquesOf    = 224 // 40% of 560
	hotCommon       = 78  // 40% of 196
	hotVertices     = 24
	hotEdgeKeys     = 8
	clients         = 2
	mcedMaxResults  = 1000 // mced's default -max-results
	communitiesKMin = 4
	communitiesKMax = 7
)

var topKs = [...]int32{1, 10, 100}

// request is one query: v for cliques-of, (u, v) for common-cliques, k for
// the other two.
type request struct {
	kind int
	hot  bool
	u, v int32
}

func (r request) path() string {
	switch r.kind {
	case kindCliquesOf:
		return "/v1/cliques-of?v=" + strconv.Itoa(int(r.v))
	case kindCommonCliques:
		return "/v1/common-cliques?u=" + strconv.Itoa(int(r.u)) + "&v=" + strconv.Itoa(int(r.v))
	case kindTopK:
		return "/v1/top-k?k=" + strconv.Itoa(int(r.v))
	}
	return "/v1/communities?k=" + strconv.Itoa(int(r.v))
}

// requestStream is the seeded request sequence; next is safe for the two
// clients to share, and the order of the sequence does not depend on which
// of them asks.
type requestStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	vertices int32
	edges    []mce.Edge
	hotVerts []int32
	hotEdges []mce.Edge
	template [blockRequests]request // kinds and hot flags of one block, keys unset
	block    [blockRequests]request
	pos      int
}

func newRequestStream(g *mce.Graph, seed int64) *requestStream {
	s := &requestStream{rng: rand.New(rand.NewSource(seed)), vertices: int32(g.N()), edges: g.Edges(), pos: blockRequests}
	byDegree := make([]int32, s.vertices)
	for v := range byDegree {
		byDegree[v] = int32(v)
	}
	slices.SortFunc(byDegree, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.Degree(b), g.Degree(a)), cmp.Compare(a, b))
	})
	for i := 1; i <= hotVertices; i++ {
		v := byDegree[i*len(byDegree)/(10*hotVertices)]
		s.hotVerts = append(s.hotVerts, v)
		if i <= hotEdgeKeys {
			s.hotEdges = append(s.hotEdges, mce.Edge{U: v, V: g.Neighbors(v)[0]})
		}
	}
	i := 0
	for ; i < blockCliquesOf; i++ {
		s.template[i] = request{kind: kindCliquesOf, hot: i < hotCliquesOf}
	}
	for j := 0; j < blockCommon; i, j = i+1, j+1 {
		s.template[i] = request{kind: kindCommonCliques, hot: j < hotCommon}
	}
	for j := 0; j < blockTopK; i, j = i+1, j+1 {
		s.template[i] = request{kind: kindTopK}
	}
	for k := int32(communitiesKMin); k <= communitiesKMax; i, k = i+1, k+1 {
		s.template[i] = request{kind: kindCommunities, v: k}
	}
	return s
}

// warmup lists every key the cache is meant to hold, once.
func (s *requestStream) warmup() []request {
	var rs []request
	for _, v := range s.hotVerts {
		rs = append(rs, request{kind: kindCliquesOf, hot: true, v: v})
	}
	for _, e := range s.hotEdges {
		rs = append(rs, request{kind: kindCommonCliques, hot: true, u: e.U, v: e.V})
	}
	for _, k := range topKs {
		rs = append(rs, request{kind: kindTopK, v: k})
	}
	return rs
}

func (s *requestStream) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos == blockRequests {
		s.fill()
	}
	r := s.block[s.pos]
	s.pos++
	return r
}

// fill shuffles the template into the next block and draws its keys.
func (s *requestStream) fill() {
	s.block = s.template
	s.rng.Shuffle(blockRequests, func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	for i := range s.block {
		r := &s.block[i]
		switch r.kind {
		case kindCliquesOf:
			if r.hot {
				r.v = s.hotVerts[s.rng.Intn(hotVertices)]
			} else {
				r.v = s.rng.Int31n(s.vertices)
			}
		case kindCommonCliques:
			e := s.edges[s.rng.Intn(len(s.edges))]
			if r.hot {
				e = s.hotEdges[s.rng.Intn(hotEdgeKeys)]
			}
			r.u, r.v = e.U, e.V
		case kindTopK:
			r.v = topKs[s.rng.Intn(len(topKs))]
		}
	}
	s.pos = 0
}

// daemon is a running mced child. It is always reaped: stop waits for the
// process, and startDaemon stops it on every path that does not return it.
type daemon struct {
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // set before done is closed
	base    string        // http://host:port of the query listener
	debug   string        // http://host:port of -debug-addr, if given
}

var (
	servingLine = regexp.MustCompile(`serving \d+ cliques over \d+ vertices on (http://[^/\s]+)/v1/`)
	debugLine   = regexp.MustCompile(`debug endpoints on (http://[^/\s]+)/debug/vars`)
)

// announceWatcher collects a child's standard output and closes ready once
// the listener addresses have been announced.
type announceWatcher struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	wantDebug bool
	ready     chan struct{}
	announced bool
}

func (w *announceWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.announced && servingLine.Match(w.buf.Bytes()) && (!w.wantDebug || debugLine.Match(w.buf.Bytes())) {
		w.announced = true
		close(w.ready)
	}
	return len(p), nil
}

func (w *announceWatcher) match(re *regexp.Regexp) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m := re.FindSubmatch(w.buf.Bytes()); m != nil {
		return string(m[1])
	}
	return ""
}

// startDaemon starts bin and waits until it announces its listeners and
// answers /readyz, for at most timeout.
func startDaemon(bin string, args []string, wantDebug bool, timeout time.Duration) (*daemon, error) {
	out := &announceWatcher{wantDebug: wantDebug, ready: make(chan struct{})}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = out, &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-out.ready:
	case <-d.done:
		return nil, fmt.Errorf("%s exited before serving: %v: %s", filepath.Base(bin), d.waitErr, stderr.String())
	case <-deadline.C:
		d.stop()
		return nil, fmt.Errorf("%s announced no listener within %v", filepath.Base(bin), timeout)
	}
	d.base, d.debug = out.match(servingLine), out.match(debugLine)
	resp, err := http.Get(d.base + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop asks the child to drain, kills it if it has not gone in 10 s, and
// returns once it has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	grace := time.NewTimer(10 * time.Second)
	defer grace.Stop()
	select {
	case <-d.done:
	case <-grace.C:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// serveInst is serve_mixed after set-up: the index on disk and mced
// serving it.
type serveInst struct {
	g      *mce.Graph
	seed   int64
	index  string
	d      *daemon
	client *http.Client
}

// startServe is the whole path from a graph file to a daemon with a warm
// cache: load, enumerate, compile the index and its serving segments as
// mcefind -index-out does, start mced with default flags on a free port,
// and ask once for every key the cache is meant to hold.
func startServe(e *env, debug bool) (*serveInst, error) {
	path := filepath.Join(e.scratch, "graph.txt")
	if err := mce.Save(path, serveGraph(e.seed)); err != nil {
		return nil, err
	}
	g, _, err := mce.Load(path)
	if err != nil {
		return nil, err
	}
	res, err := mce.Enumerate(g, mce.WithBlockSize(serveBlockSize), mce.WithParallelism(2))
	if err != nil {
		return nil, err
	}
	index := filepath.Join(e.scratch, "index.cliqdb")
	if _, err := cliqdb.Build(res.Cliques, index); err != nil {
		return nil, err
	}
	if err := cliqstore.WriteDir(index+".segments", res.Cliques); err != nil {
		return nil, err
	}
	args := []string{"-db", index, "-listen", "127.0.0.1:0"}
	if debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	d, err := startDaemon(e.mcedBin, args, debug, 30*time.Second)
	if err != nil {
		return nil, err
	}
	s := &serveInst{g: g, seed: e.seed, index: index, d: d,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 30 * time.Second}}
	for _, r := range newRequestStream(g, e.seed).warmup() {
		if _, status, err := s.get(r); err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", r.path(), status, err)
		}
	}
	return s, nil
}

func (s *serveInst) get(r request) (body []byte, status int, err error) {
	resp, err := s.client.Get(s.d.base + r.path())
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// answers gives the total every request must report, from an in-process
// open of the file mced serves.
type answers struct {
	db          *cliqdb.DB
	communities [communitiesKMax + 1]int
}

func openAnswers(index string) (*answers, error) {
	db, err := cliqdb.Open(index)
	if err != nil {
		return nil, err
	}
	a := &answers{db: db}
	cliques := db.Cliques()
	for k := communitiesKMin; k <= communitiesKMax; k++ {
		comms, err := community.Detect(cliques, k)
		if err != nil {
			return nil, err
		}
		a.communities[k] = min(len(comms), mcedMaxResults)
	}
	return a, nil
}

// total is the "total" field of mced's answer to r. ids is scratch of the
// calling client.
func (a *answers) total(r request, ids []uint32) (int, []uint32) {
	switch r.kind {
	case kindCliquesOf:
		ids = a.db.AppendCliquesOf(ids[:0], r.v)
		return len(ids), ids
	case kindCommonCliques:
		ids = a.db.AppendCommonCliques(ids[:0], r.u, r.v)
		return len(ids), ids
	case kindTopK:
		return min(int(r.v), a.db.NumCliques()), ids
	}
	return a.communities[r.v], ids
}

var totalField = []byte(`"total":`)

// parseTotal reads the "total" field without decoding the clique lists
// around it; the load generator shares two cores with the daemon.
func parseTotal(body []byte) int {
	i := bytes.LastIndex(body, totalField)
	if i < 0 {
		return -1
	}
	rest := body[i+len(totalField):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// loadResult is a timed region of requests, by query kind.
type loadResult struct {
	latencies [numKinds][]time.Duration
	wall      time.Duration
	failed    int
}

// load runs the closed loop: each of the two clients sends its next
// request when the previous answer has been read and checked.
func (s *serveInst) load(d time.Duration) (*loadResult, error) {
	ans, err := openAnswers(s.index)
	if err != nil {
		return nil, err
	}
	stream := newRequestStream(s.g, s.seed)
	var perClient [clients]loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(out *loadResult) {
			defer wg.Done()
			var ids []uint32
			for time.Since(start) < d {
				r := stream.next()
				t0 := time.Now()
				body, status, err := s.get(r)
				out.latencies[r.kind] = append(out.latencies[r.kind], time.Since(t0))
				var want int
				want, ids = ans.total(r, ids)
				if err != nil || status != http.StatusOK || parseTotal(body) != want {
					out.failed++
				}
			}
		}(&perClient[c])
	}
	wg.Wait()
	all := &loadResult{wall: time.Since(start)}
	for c := range perClient {
		all.failed += perClient[c].failed
		for k := range all.latencies {
			all.latencies[k] = append(all.latencies[k], perClient[c].latencies[k]...)
		}
	}
	return all, nil
}

func (s *serveInst) measure(d time.Duration) (*samples, error) {
	res, err := s.load(d)
	if err != nil {
		return nil, err
	}
	out := &samples{wall: res.wall, failed: res.failed}
	for _, l := range res.latencies {
		out.latencies = append(out.latencies, l...)
	}
	out.work = int64(len(out.latencies) - out.failed)
	return out, nil
}

// verify checks the family in the file mced serves.
func (s *serveInst) verify(e *env) (checks, failed int, err error) {
	db, err := cliqdb.Open(s.index)
	if err != nil {
		return 0, 0, err
	}
	return verifyFamily(e, "serve_mixed", s.g, family{cliques: db.NumCliques(), digest: db.Digest()})
}

func (s *serveInst) rssPID() int { return s.d.cmd.Process.Pid }

func (s *serveInst) close() {
	s.client.CloseIdleConnections()
	s.d.stop()
}
