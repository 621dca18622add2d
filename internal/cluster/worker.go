package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mce/internal/decomp"
	"mce/internal/durable"
	"mce/internal/mcealg"
	"mce/internal/telemetry"
)

// Worker processes block-analysis tasks for coordinators. The zero value is
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
// when the coordinator hangs up.
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
	an := new(decomp.Analyzer) // this connection's BLOCK-ANALYSIS scratch
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
		if met != nil {
			met.BytesReceived.Add(frameLen(p))
			met.TasksInFlight.Add(1)
		}
		l.payload, err = runTask(l.payload[:0], p, corrupt, met, an)
		if met != nil {
			met.TasksInFlight.Add(-1)
		}
		// BLOCK-ANALYSIS emits ascending cliques, so the result always
		// encodes; if it ever does not, hanging up makes the coordinator
		// retry and then name the block.
		if err == nil {
			if met != nil {
				// Counted before the write: once the coordinator holds the
				// result, its bytes are already on this side's books.
				met.BytesSent.Add(frameLen(l.payload))
			}
			err = l.send()
		}
		w.endTask()
		if err != nil {
			return fmt.Errorf("cluster: send result: %w", err)
		}
	}
}

// runTask decodes one task and executes BLOCK-ANALYSIS for it, the kernel's
// emit encoding each clique straight into the result payload, which is
// built in dst and returned; errors are captured in-band. corrupt means the
// frame failed its checksum: the answer is the Corrupt verdict. A task that
// does not decode into a block of classed nodes over a simple undirected
// graph is answered with Err under its own ID, and so is a panicking block
// (an algorithm bug), so one poison task cannot take down a node that other
// coordinators share; the analyzer it left mid-recursion is replaced by a
// fresh one. The only error is a clique that does not encode. met may be nil.
func runTask(dst, payload []byte, corrupt bool, met *telemetry.Engine, an *decomp.Analyzer) (out []byte, err error) {
	if met != nil {
		met.TasksServed.Inc()
	}
	var t blockTask
	failed := func(msg string) ([]byte, error) { // an answer is cliques or an error, never both
		if met != nil {
			met.TaskErrors.Inc()
		}
		return append(appendResultHead(dst, t.taskID, corrupt), msg...), nil
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = failed(fmt.Sprintf("panic in BLOCK-ANALYSIS: %v", r))
			*an = decomp.Analyzer{}
			if met != nil {
				met.TaskPanics.Inc()
			}
		}
	}()
	if corrupt {
		if met != nil {
			met.CorruptResults.Inc()
		}
		return failed("")
	}
	t, perr := parseTask(payload)
	if perr != nil {
		return failed(perr.Error())
	}
	var ins *telemetry.BlockInstr
	var t0 time.Time
	if met != nil {
		ins = &telemetry.BlockInstr{}
		t0 = time.Now()
	}
	// Intra-block parallelism rides the combo, not the wire protocol: a
	// coordinator that selected BitSetsParallel gets a work-stealing pool
	// here sized to the worker's GOMAXPROCS (mcealg's auto default), and the
	// pool's depth-first merge keeps the result bytes — and therefore the
	// checkpoint digests — identical to a sequential run. A pool-worker
	// panic propagates to this goroutine and lands in the recover above,
	// preserving the worker's poison-task isolation.
	out = appendResultHead(dst, t.taskID, false)
	countAt, cliques := len(out)-4, uint32(0)
	aerr := an.Analyze(t.Block, t.Combo, func(c []int32) {
		if err == nil {
			out, err = durable.AppendAscending(out, c)
			cliques++
		}
	}, ins, mcealg.Par{})
	if met != nil {
		met.ComboAnalyzed(t.Combo.Index(), t.Combo.Label(), time.Since(t0))
		met.MergeBlockInstr(ins)
		met.CliquesFound.Add(int64(cliques))
	}
	if aerr != nil {
		return failed(aerr.Error())
	}
	binary.LittleEndian.PutUint32(out[countAt:], cliques)
	return out, err
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
