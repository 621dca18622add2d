package cluster

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"mce/internal/decomp"
	"mce/internal/durable"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// Worker processes block-analysis tasks for coordinators. It keeps the
// level graphs tasks name, each validated once on arrival and shared by
// every connection, under a fixed cap (residentGraphBytes); each connection
// induces, selects and analyses its blocks from them. The zero value is
// ready to serve; MaxConns and DrainTimeout, if used, must be set before
// Serve.
type Worker struct {
	// MaxConns caps how many coordinator connections are served
	// concurrently. When the cap is reached further connections wait in
	// the listener's accept queue, so one worker process cannot be driven
	// into memory exhaustion by an over-eager coordinator. 0 means
	// unlimited.
	MaxConns int
	// DrainTimeout bounds how long Close waits for in-flight tasks to
	// finish and ship their results before force-closing the remaining
	// connections. 0 means 5s.
	DrainTimeout time.Duration
	// Metrics, when non-nil, receives worker-side telemetry: tasks served,
	// errors, panics, bytes on the wire, per-combo block timings and the
	// MCE recursion counters. Nil disables all instrumentation. Must be set
	// before Serve.
	Metrics *telemetry.Engine

	graphs graphStore // the level graphs tasks name, shared by every connection

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	closedCh chan struct{}
	conns    map[net.Conn]struct{}
	inflight int
	drained  chan struct{}
}

// initLocked lazily creates the zero value's channels and maps. Callers
// hold w.mu.
func (w *Worker) initLocked() {
	if w.closedCh == nil {
		w.closedCh = make(chan struct{})
	}
	if w.conns == nil {
		w.conns = make(map[net.Conn]struct{})
	}
}

// Serve accepts coordinator connections on ln until Close is called or the
// listener fails. Each connection is served on its own goroutine, so one
// worker process can serve several coordinators (the paper's time-shared
// cluster).
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	w.initLocked()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("cluster: worker already closed")
	}
	w.ln = ln
	closedCh := w.closedCh
	w.mu.Unlock()

	var sem chan struct{}
	if w.MaxConns > 0 {
		sem = make(chan struct{}, w.MaxConns)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if w.isClosed() {
				return nil
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-closedCh:
				conn.Close()
				return nil
			}
		}
		if !w.track(conn) {
			conn.Close()
			if sem != nil {
				<-sem
			}
			return nil
		}
		go func() {
			defer func() {
				w.untrack(conn)
				conn.Close()
				if sem != nil {
					<-sem
				}
			}()
			_ = w.serveConn(conn)
		}()
	}
}

// Close stops the accept loop, waits up to DrainTimeout for in-flight
// tasks to finish and ship their results, then closes every remaining
// connection (whose coordinators requeue their blocks elsewhere). It is
// idempotent: a second Close returns immediately.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.initLocked()
	w.closed = true
	close(w.closedCh)
	var err error
	if w.ln != nil {
		err = w.ln.Close()
	}
	var drained chan struct{}
	if w.inflight > 0 {
		drained = make(chan struct{})
		w.drained = drained
	}
	w.mu.Unlock()

	if drained != nil {
		dt := w.DrainTimeout
		if dt <= 0 {
			dt = 5 * time.Second
		}
		t := time.NewTimer(dt)
		select {
		case <-drained:
		case <-t.C: // a task is stuck (hung link, runaway block): give up
		}
		t.Stop()
	}
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	return err
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// beginTask registers one in-flight task; it refuses when the worker is
// draining so serving loops stop picking up new work.
func (w *Worker) beginTask() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.inflight++
	return true
}

func (w *Worker) endTask() {
	w.mu.Lock()
	w.inflight--
	if w.closed && w.inflight == 0 && w.drained != nil {
		close(w.drained)
		w.drained = nil
	}
	w.mu.Unlock()
}

// ServeConn answers one coordinator connection: a handshake followed by a
// stream of task frames, each answered with a result frame. It returns nil
// when the coordinator hangs up. The level graphs the connection is sent
// are kept for it alone.
func ServeConn(conn net.Conn) error {
	w := &Worker{}
	w.mu.Lock()
	w.initLocked()
	w.mu.Unlock()
	return w.serveConn(conn)
}

func (w *Worker) serveConn(conn net.Conn) error {
	version, err := recvHello(durable.NewFrameReader(conn, maxHandshakeLen), kindHello)
	if err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	l := newLink(conn)
	if err := l.sendHello(protocolVersion, kindAck); err != nil {
		return fmt.Errorf("cluster: handshake ack: %w", err)
	}
	if version != protocolVersion {
		return fmt.Errorf("cluster: coordinator speaks version %d, worker %d", version, protocolVersion)
	}

	met := w.Metrics
	var s session
	for {
		p, err := l.in.Next()
		corrupt := errors.Is(err, durable.ErrChecksum)
		if err != nil && !corrupt {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("cluster: read task: %w", err)
		}
		// Draining: drop the task without an answer — closing the
		// connection makes the coordinator requeue it elsewhere.
		if !w.beginTask() {
			return nil
		}
		met.Add(telemetry.BytesReceived, frameLen(p))
		met.Move(telemetry.TasksInFlight, 1)
		l.payload, err = w.runTask(l.payload[:0], p, corrupt, &s)
		met.Move(telemetry.TasksInFlight, -1)
		if len(p) > bigFrame {
			// The frame carried a level graph, now decoded: a new reader
			// lets its buffer go instead of holding it for the connection's
			// life. A reader takes exactly a frame's bytes, never more.
			l.in = durable.NewFrameReader(conn, maxMessageLen)
		}
		// BLOCK-ANALYSIS emits ascending cliques, so the result always
		// encodes; if it ever does not, hanging up makes the coordinator
		// retry and then name the block.
		if err == nil {
			// Counted before the write: once the coordinator holds the
			// result, its bytes are already on this side's books.
			met.Add(telemetry.BytesSent, frameLen(l.payload))
			err = l.send()
		}
		w.endTask()
		if err != nil {
			return fmt.Errorf("cluster: send result: %w", err)
		}
	}
}

// session is one connection's analysis scratch: the materialiser over the
// level graph its latest task named, the analyzer and the block being
// analysed. It runs the loop a LocalExecutor worker runs —
// materialise, select, analyse — on blocks that arrive as membership.
type session struct {
	level *graph.Graph
	mat   *decomp.Materialiser
	an    decomp.Analyzer
	blk   decomp.Block
}

// runTask decodes one task and executes BLOCK-ANALYSIS for it, the kernel's
// emit encoding each clique straight into the result payload, which is
// built in dst and returned; errors are captured in-band. corrupt means the
// frame failed its checksum: the answer is the Corrupt verdict. A task that
// names a level graph the worker does not hold is answered "graph unknown";
// one that carries its graph leaves it with the worker. A task that does
// not decode into classed members of a valid level graph is answered with
// Err under its own ID, and so is a panicking block (an algorithm bug), so
// one poison task cannot take down a node that other coordinators share;
// the scratch it left mid-recursion is replaced. The only error is a
// clique that does not encode.
func (w *Worker) runTask(dst, payload []byte, corrupt bool, s *session) (out []byte, err error) {
	met := w.Metrics
	var t blockTask
	verdict := verdictDone
	failed := func(msg string) ([]byte, error) { // an answer is cliques or an error, never both
		met.Inc(telemetry.TasksServed)
		met.Inc(telemetry.TaskErrors)
		return append(appendResultHead(dst, t.taskID, verdict, comboNone), msg...), nil
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = failed(fmt.Sprintf("panic in BLOCK-ANALYSIS: %v", r))
			*s = session{}
			met.Inc(telemetry.TaskPanics)
		}
	}()
	if corrupt {
		met.Inc(telemetry.CorruptResults)
		verdict = verdictCorrupt
		return failed("")
	}
	t, perr := parseTask(payload, s.blk.Orig)
	if perr != nil {
		return failed(perr.Error())
	}
	g := t.Level
	if g != nil {
		w.graphs.put(t.Graph, g)
	} else if g = w.graphs.get(t.Graph); g == nil {
		return appendResultHead(dst, t.taskID, verdictGraphUnknown, comboNone), nil
	}
	if g != s.level {
		s.level, s.mat = g, decomp.NewMaterialiser(g)
	}
	t.block(&s.blk)
	t0 := time.Now()
	blk := s.mat.Materialise(&s.blk)
	t1 := time.Now()
	combo := t.Rule.Pick(blk.Graph, &s.mat.Features)
	t2 := time.Now()
	// Intra-block parallelism rides the rule: a BitSetsParallel pick gets a
	// work-stealing pool here sized to the worker's GOMAXPROCS (mcealg's
	// auto default), and the pool's depth-first merge keeps the result
	// bytes — and therefore the checkpoint digests — identical to a
	// sequential run. A pool-worker panic propagates to this goroutine and
	// lands in the recover above, preserving the worker's poison-task
	// isolation.
	c := blockCounts{Combo: comboNone}
	if i := combo.Index(); i >= 0 && i < mcealg.NumCombos {
		c.Combo = byte(i)
	}
	out = appendResultHead(dst, t.taskID, verdictDone, c.Combo)
	cliques := 0
	aerr := s.an.Analyze(blk, combo, func(clique []int32) {
		if err == nil {
			out, err = durable.AppendAscending(out, clique)
			cliques++
		}
	}, mcealg.Par{})
	kernel := time.Since(t2)
	c.Nodes, c.Pivots = s.an.Counts()
	c.KernelNs = int64(kernel)
	met.Add(telemetry.InduceNs, int64(t1.Sub(t0)))
	met.Add(telemetry.SelectNs, int64(t2.Sub(t1)))
	met.ComboAnalyzed(combo.Index(), kernel)
	met.Add(telemetry.RecursionNodes, c.Nodes)
	met.Add(telemetry.PivotSelections, c.Pivots)
	met.Add(telemetry.CliquesFound, int64(cliques))
	if aerr != nil {
		return failed(aerr.Error())
	}
	met.Inc(telemetry.TasksServed)
	setResultCounts(out, c, cliques)
	return out, err
}

// bigFrame is the payload size past which a connection drops its read
// buffer once the frame is handled: only a frame carrying a level graph is
// ever that large, and it comes once per graph.
const bigFrame = 1 << 20

// residentGraphBytes caps the level graphs a worker keeps, by the bytes of
// their CSR arrays. Past it the least recently used are evicted; a graph
// larger than the cap on its own is refused in-band.
const residentGraphBytes = 512 << 20

// graphStore is a worker's resident level graphs, by content address, each
// validated once on arrival and evicted least recently used. A graph's size
// is its address's (graphKey.size). The zero value is ready and holds at
// most residentGraphBytes.
type graphStore struct {
	mu     sync.Mutex
	held   int64
	clock  uint64
	graphs map[graphKey]*resident
}

type resident struct {
	g    *graph.Graph
	used uint64 // the store's clock at the last get or put
}

// get returns the graph k names, or nil when the store does not hold it.
func (s *graphStore) get(k graphKey) *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.graphs[k]
	if r == nil {
		return nil
	}
	s.clock++
	r.used = s.clock
	return r.g
}

// put keeps g under k, evicting the least recently used graphs until it
// fits.
func (s *graphStore) put(k graphKey, g *graph.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	if r := s.graphs[k]; r != nil {
		r.used = s.clock
		return
	}
	if s.graphs == nil {
		s.graphs = make(map[graphKey]*resident)
	}
	for s.held+k.size() > residentGraphBytes && len(s.graphs) > 0 {
		var lru graphKey
		oldest := uint64(math.MaxUint64)
		for key, r := range s.graphs {
			if r.used < oldest {
				lru, oldest = key, r.used
			}
		}
		delete(s.graphs, lru)
		s.held -= lru.size()
	}
	s.graphs[k] = &resident{g: g, used: s.clock}
	s.held += k.size()
}

// StartLocal launches n workers on ephemeral localhost ports and returns
// their addresses plus a stop function. It is the one-command stand-in for
// the paper's 10-machine deployment, used by tests, examples and benches.
// stop is idempotent: calling it twice is safe.
func StartLocal(n int) (addrs []string, stop func(), err error) {
	var workers []*Worker
	var once sync.Once
	stop = func() {
		once.Do(func() {
			for _, w := range workers {
				_ = w.Close()
			}
		})
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster: start local worker %d: %w", i, err)
		}
		w := &Worker{}
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
		go func() { _ = w.Serve(ln) }()
	}
	return addrs, stop, nil
}
