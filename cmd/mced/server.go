package main

// The HTTP serving core: four query endpoints over a cliqdb index, wrapped
// in admission control, per-request deadlines, result caching and a
// degraded mode that keeps the stale index answering while a rebuild runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mce/internal/cliqdb"
	"mce/internal/community"
	"mce/internal/resguard"
	"mce/internal/telemetry"
)

// queryDB is the slice of *cliqdb.DB the handlers need. It exists so the
// overload and drain tests can substitute a database with controllable
// latency; production always serves the real index.
type queryDB interface {
	NumVertices() int32
	NumCliques() int
	CliqueSize(id uint32) int
	AppendClique(dst []int32, id uint32) []int32
	AppendCliquesOf(dst []uint32, v int32) []uint32
	AppendCommonCliques(dst []uint32, u, v int32) []uint32
	AppendTopK(dst []uint32, k int) []uint32
	AppendMinSize(dst []uint32, k int) []uint32
	Digest() uint32
}

// Endpoint slots for telemetry.Engine.EndpointObserved.
const (
	slotCliquesOf = iota
	slotCommonCliques
	slotTopK
	slotCommunities
	slotRebuild
)

type serverConfig struct {
	met         *telemetry.Engine
	guard       *resguard.Guard
	deadline    time.Duration
	maxInflight int
	cacheSize   int
	maxResults  int
	dbPath      string
	segDir      string
}

type server struct {
	cfg      serverConfig
	inflight chan struct{}
	cache    *resultCache

	db         atomic.Pointer[queryDB]
	rebuilding atomic.Bool
}

func newServer(db queryDB, cfg serverConfig) *server {
	if cfg.maxInflight <= 0 {
		cfg.maxInflight = 1
	}
	if cfg.maxResults <= 0 {
		cfg.maxResults = 1
	}
	if cfg.deadline <= 0 {
		cfg.deadline = time.Second
	}
	s := &server{
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.maxInflight),
		cache:    newResultCache(cfg.cacheSize, cfg.met),
	}
	s.db.Store(&db)
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cliques-of", s.query(slotCliquesOf, "cliques-of", s.cliquesOf))
	mux.HandleFunc("/v1/common-cliques", s.query(slotCommonCliques, "common-cliques", s.commonCliques))
	mux.HandleFunc("/v1/top-k", s.query(slotTopK, "top-k", s.topK))
	mux.HandleFunc("/v1/communities", s.query(slotCommunities, "communities", s.communities))
	mux.HandleFunc("/v1/rebuild", s.rebuild)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.rebuilding.Load() {
			fmt.Fprintln(w, "degraded: rebuilding index, serving stale")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// result is one computed response, ready to ship and to cache.
type result struct {
	body   []byte
	status int
}

// query wraps a handler in the full serving discipline: admission control
// (slot pool + heap budget → 429), the result cache with singleflight, a
// per-request deadline (→ 504), degraded-mode accounting, and per-endpoint
// telemetry. The computation runs in its own goroutine that holds the
// admission slot until it finishes — a timed-out query still occupies its
// slot, so -max-inflight bounds actual work, not just waiting clients.
func (s *server) query(slot int, name string, h func(ctx context.Context, db queryDB, r *http.Request) result) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		met := s.cfg.met
		t0 := met.Now()
		status := s.serveQuery(w, r, h)
		met.EndpointObserved(slot, name, met.Since(t0), status)
	}
}

func (s *server) serveQuery(w http.ResponseWriter, r *http.Request, h func(ctx context.Context, db queryDB, r *http.Request) result) int {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	met := s.cfg.met

	// Cache hits bypass admission: they cost a map lookup and a write, and
	// serving them under overload is the whole point of having a cache.
	key := r.URL.Path + "?" + r.URL.RawQuery
	if res, ok := s.cache.get(key); ok {
		return writeResult(w, res)
	}

	if s.cfg.guard != nil && s.cfg.guard.OverBudget() {
		return s.shed(w, met)
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		return s.shed(w, met)
	}
	met.Inc(telemetry.QueriesAdmitted)
	if s.rebuilding.Load() {
		met.Inc(telemetry.DegradedServes)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.deadline)
	defer cancel()
	done := make(chan result, 1)
	go func() {
		defer func() { <-s.inflight }()
		done <- s.cache.do(key, func() result {
			return h(ctx, s.loadDB(), r)
		})
	}()
	select {
	case res := <-done:
		return writeResult(w, res)
	case <-ctx.Done():
		met.Inc(telemetry.QueriesTimedOut)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return http.StatusGatewayTimeout
	}
}

func (s *server) shed(w http.ResponseWriter, met *telemetry.Engine) int {
	met.Inc(telemetry.QueriesShed)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
	return http.StatusTooManyRequests
}

func (s *server) loadDB() queryDB { return *s.db.Load() }

func writeResult(w http.ResponseWriter, res result) int {
	if res.status == http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	return res.status
}

func jsonResult(v any) result {
	body, err := json.Marshal(v)
	if err != nil {
		return errResult(http.StatusInternalServerError, "encode response: %v", err)
	}
	return result{body: append(body, '\n'), status: http.StatusOK}
}

func errResult(status int, format string, args ...any) result {
	return result{body: []byte(fmt.Sprintf(format, args...) + "\n"), status: status}
}

// --- endpoint handlers ---
//
// Every answer is one JSON object appended straight into a byte slice:
// keys in sorted order and integers in decimal, the bytes encoding/json
// gives the same map, with no intermediate values to build and marshal.

// okResult seals a body built by the appenders below.
func okResult(body []byte) result {
	return result{body: append(body, "}\n"...), status: http.StatusOK}
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

func appendBool(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(b, key...), v)
}

// appendInts appends a JSON array of integers.
func appendInts(b []byte, vs []int32) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendCliques appends `{"cliques":[…]` — at most maxResults of ids, each
// as {"id","size","members"} — and reports whether it cut the list short.
func (s *server) appendCliques(db queryDB, ids []uint32) (b []byte, truncated bool) {
	if len(ids) > s.cfg.maxResults {
		ids = ids[:s.cfg.maxResults]
		truncated = true
	}
	size := 0
	for _, id := range ids {
		size += db.CliqueSize(id)
	}
	b = make([]byte, 0, 96+len(ids)*32+size*7)
	b = append(b, `{"cliques":[`...)
	var members []int32
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		members = db.AppendClique(members[:0], id)
		b = appendInt(b, `{"id":`, int(id))
		b = appendInt(b, `,"size":`, len(members))
		b = appendInts(append(b, `,"members":`...), members)
		b = append(b, '}')
	}
	return append(b, ']'), truncated
}

func parseVertex(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("query parameter %q must be a non-negative vertex ID, got %q", name, raw)
	}
	return int32(v), nil
}

// cliquesOf serves GET /v1/cliques-of?v=N — every maximal clique containing
// vertex v. A vertex outside the index's ID space is a valid query with an
// empty answer, not an error.
func (s *server) cliquesOf(ctx context.Context, db queryDB, r *http.Request) result {
	v, err := parseVertex(r, "v")
	if err != nil {
		return errResult(http.StatusBadRequest, "%v", err)
	}
	var ids []uint32
	if v < db.NumVertices() {
		ids = db.AppendCliquesOf(nil, v)
	}
	b, truncated := s.appendCliques(db, ids)
	b = appendInt(b, `,"total":`, len(ids))
	b = appendBool(b, `,"truncated":`, truncated)
	return okResult(appendInt(b, `,"vertex":`, int(v)))
}

// commonCliques serves GET /v1/common-cliques?u=N&v=M — the maximal cliques
// containing both u and v (nonempty exactly when u and v are adjacent).
func (s *server) commonCliques(ctx context.Context, db queryDB, r *http.Request) result {
	u, err := parseVertex(r, "u")
	if err != nil {
		return errResult(http.StatusBadRequest, "%v", err)
	}
	v, err := parseVertex(r, "v")
	if err != nil {
		return errResult(http.StatusBadRequest, "%v", err)
	}
	var ids []uint32
	if u < db.NumVertices() && v < db.NumVertices() {
		ids = db.AppendCommonCliques(nil, u, v)
	}
	b, truncated := s.appendCliques(db, ids)
	b = appendInt(b, `,"total":`, len(ids))
	b = appendBool(b, `,"truncated":`, truncated)
	b = appendInt(b, `,"u":`, int(u))
	return okResult(appendInt(b, `,"v":`, int(v)))
}

// topK serves GET /v1/top-k?k=N — the k largest maximal cliques, size
// descending with clique ID as the tiebreak.
func (s *server) topK(ctx context.Context, db queryDB, r *http.Request) result {
	raw := r.URL.Query().Get("k")
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 {
		return errResult(http.StatusBadRequest, "query parameter %q must be a positive count, got %q", "k", raw)
	}
	truncated := false
	if k > s.cfg.maxResults {
		k = s.cfg.maxResults
		truncated = true
	}
	ids := db.AppendTopK(nil, k)
	b, _ := s.appendCliques(db, ids)
	b = appendInt(b, `,"k":`, k)
	b = appendInt(b, `,"total":`, len(ids))
	return okResult(appendBool(b, `,"truncated":`, truncated))
}

// communities serves GET /v1/communities?k=N — k-clique percolation over
// the cliques of at least k members, which the index's size order keeps as
// one prefix. At small k that prefix is most of the index, so this is the
// endpoint that makes queries carry deadlines.
func (s *server) communities(ctx context.Context, db queryDB, r *http.Request) result {
	raw := r.URL.Query().Get("k")
	k, err := strconv.Atoi(raw)
	if err != nil || k < 2 {
		return errResult(http.StatusBadRequest, "query parameter %q must be an integer ≥ 2, got %q", "k", raw)
	}
	ids := db.AppendMinSize(nil, k)
	var members []int32
	offsets := make([]int, 1, len(ids)+1)
	for _, id := range ids {
		members = db.AppendClique(members, id)
		offsets = append(offsets, len(members))
	}
	comms, err := community.Percolate(members, offsets, k)
	if err != nil {
		return errResult(http.StatusInternalServerError, "%v", err)
	}
	truncated := false
	if len(comms) > s.cfg.maxResults {
		comms = comms[:s.cfg.maxResults]
		truncated = true
	}
	size := 0
	for _, c := range comms {
		size += len(c.Nodes)
	}
	b := make([]byte, 0, 96+len(comms)*48+size*7)
	b = append(b, `{"communities":[`...)
	for i, c := range comms {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInts(append(b, `{"nodes":`...), c.Nodes)
		b = appendInt(b, `,"cliques":`, c.Cliques)
		b = appendInt(b, `,"max_clique_size":`, c.MaxCliqueSize)
		b = append(b, '}')
	}
	b = appendInt(append(b, ']'), `,"k":`, k)
	b = appendInt(b, `,"total":`, len(comms))
	return okResult(appendBool(b, `,"truncated":`, truncated))
}

// rebuild serves POST /v1/rebuild — recompile the index from the segment
// directory and swap it in atomically. The daemon keeps answering from the
// stale index for the whole rebuild (degraded mode: /readyz reports it,
// DegradedServes counts it); the swap purges the result cache so no answer
// from the old index outlives it. The rebuild runs outside the admission
// slot pool — it is an operator action, not a query, and must not be
// shedable by the load it is trying to fix.
func (s *server) rebuild(w http.ResponseWriter, r *http.Request) {
	met := s.cfg.met
	t0 := met.Now()
	status := s.serveRebuild(w, r)
	met.EndpointObserved(slotRebuild, "rebuild", met.Since(t0), status)
}

func (s *server) serveRebuild(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed (POST)", http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	if s.cfg.segDir == "" {
		http.Error(w, "no segment directory configured (-segments)", http.StatusConflict)
		return http.StatusConflict
	}
	if !s.rebuilding.CompareAndSwap(false, true) {
		http.Error(w, "rebuild already in flight", http.StatusConflict)
		return http.StatusConflict
	}
	defer s.rebuilding.Store(false)

	st, err := cliqdb.CompileSegments(s.cfg.segDir, s.cfg.dbPath)
	if err != nil {
		http.Error(w, fmt.Sprintf("rebuild: %v", err), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	db, err := cliqdb.Open(s.cfg.dbPath)
	if err != nil {
		http.Error(w, fmt.Sprintf("rebuild: reopen: %v", err), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	var q queryDB = db
	s.db.Store(&q)
	s.cache.purge()
	s.cfg.met.Inc(telemetry.IndexRebuilds)
	res := jsonResult(map[string]any{
		"cliques": st.Cliques, "vertices": st.Vertices, "bytes": st.Bytes,
		"digest": fmt.Sprintf("%08x", st.Digest),
	})
	writeResult(w, res)
	return res.status
}
