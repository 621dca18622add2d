package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mce/internal/decomp"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// ClientOptions tunes the coordinator side of the cluster.
type ClientOptions struct {
	// DialTimeout bounds each worker connection attempt; 0 means 5s.
	DialTimeout time.Duration
	// TaskTimeout bounds one task round trip; a worker that does not
	// answer inside it is retired and its block requeued, so a hung worker
	// cannot stall a batch. 0 derives 30s plus 1ms per node and edge plus
	// twice Latency; negative disables deadlines.
	TaskTimeout time.Duration
	// TaskRetries is the per-block failure budget: a block that has had
	// this many failed attempts (transport failures or corrupt verdicts,
	// possibly on the same connection) is declared a poison task and the
	// batch fails deterministically with a *PoisonTaskError, instead of
	// cascading worker by worker through the whole cluster. 0 means 3;
	// negative means unlimited.
	TaskRetries int
	// SkipPoisonTasks turns a poison verdict from a batch-fatal error into
	// a recorded skip (PoisonVerdicts): the block's cliques are omitted and
	// the batch carries on. The output is then explicitly incomplete —
	// callers must surface the verdicts; mcefind exits non-zero.
	SkipPoisonTasks bool
	// AutoReconnect re-dials dead workers in the background, each address
	// as soon as its hold (see HealthReport) runs out, so capacity lost to a
	// worker restart returns on its own — also to a batch in flight, which
	// waits up to 5s for it once every worker has died. Without it,
	// Reconnect is manual and a batch fails when its last worker dies.
	AutoReconnect bool
	// Latency is an artificial delay on every message, simulating the
	// interconnect round trips whose overhead the paper observes when many
	// small blocks are shipped (§6.3).
	Latency time.Duration
	// Hedge enables speculative re-dispatch of straggling blocks: once the
	// batch has seen 3 round trips, a block in flight longer than twice
	// their 90th percentile (and at least 25ms) is dispatched once more and
	// the first result wins. Lemma 1 makes the copies' answers identical.
	Hedge bool
	// MemoryBudget is a coordinator heap budget in bytes: above it,
	// dispatch pauses (backpressure) instead of buffering results toward an
	// OOM kill, with one block always in flight. 0 disables the guard.
	MemoryBudget int64
	// Metrics, when non-nil, receives coordinator-side telemetry: tasks in
	// flight, retries, reconnects, verdicts, hedging, bytes on the wire and
	// round-trip latencies.
	Metrics *telemetry.Engine
}

// A block earns its one twin once in flight past max(hedgeMultiplier × the
// batch's hedgeQuantile round trip, hedgeMinDelay), from
// hedgeMinObservations round trips on. A batch whose every worker has died
// waits allDeadGrace for capacity to return.
const (
	hedgeQuantile        = 0.9
	hedgeMultiplier      = 2
	hedgeMinDelay        = 25 * time.Millisecond
	hedgeMinObservations = 3
	allDeadGrace         = 5 * time.Second
)

// retryBudget resolves the TaskRetries default; < 0 means unlimited.
func (o *ClientOptions) retryBudget() int {
	if o.TaskRetries == 0 {
		return 3
	}
	return o.TaskRetries
}

// Client is a coordinator attached to a fixed set of workers. It implements
// core.Executor, so it can be plugged directly into FindMaxCliques.
type Client struct {
	opts   ClientOptions
	guard  *resguard.Guard
	mu     sync.Mutex
	conns  []*workerConn
	health map[string]*workerHealth // one card per address, shared across redials
	closed bool
	report DialReport

	// kick wakes the reconnect loop when a connection dies; done stops it.
	kick chan struct{}
	done chan struct{}

	// recruits are in-flight batches' channels for revived connections.
	recruitMu sync.Mutex
	recruits  map[chan *workerConn]struct{}

	// verdicts accumulates poison-task skips under SkipPoisonTasks.
	verdictMu sync.Mutex
	verdicts  []PoisonTaskError
}

// PoisonVerdicts returns the poison tasks skipped so far under
// SkipPoisonTasks, oldest first. Empty means the results are complete.
func (c *Client) PoisonVerdicts() []PoisonTaskError {
	c.verdictMu.Lock()
	defer c.verdictMu.Unlock()
	return append([]PoisonTaskError(nil), c.verdicts...)
}

func (c *Client) recordPoison(v PoisonTaskError) {
	c.verdictMu.Lock()
	c.verdicts = append(c.verdicts, v)
	c.verdictMu.Unlock()
}

// workerConn is one worker connection. conn is nil for a placeholder of an
// address unreachable at Dial, kept under AutoReconnect for the redial loop.
type workerConn struct {
	addr   string
	conn   net.Conn
	link   *link
	dead   bool
	leased bool // owned by a batch runner (possibly a straggler of a returned batch)
}

// DialFailure records one worker address that could not be dialled.
type DialFailure struct {
	Addr string
	Err  error
}

// DialReport describes how a Dial went. A degraded start (some workers
// unreachable) is not an error — the run proceeds on the survivors — but
// callers should surface it rather than discover it from a slow run.
type DialReport struct {
	// Addrs lists every address Dial attempted.
	Addrs []string
	// Connected is the number of connections established, one per
	// reachable address.
	Connected int
	// Failures lists the addresses that were unreachable.
	Failures []DialFailure
}

// Degraded reports whether some workers were unreachable at Dial time.
func (r DialReport) Degraded() bool { return len(r.Failures) > 0 }

// DialReport returns the degraded-start record of the initial Dial.
func (c *Client) DialReport() DialReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// Dial connects to every worker address. It fails unless at least one
// worker is reachable; unreachable ones are reported in the error when
// everything is down, and in DialReport when the start is merely degraded.
// With AutoReconnect, the redial loop adopts them once they come up.
func Dial(addrs []string, opts ClientOptions) (*Client, error) {
	return DialContext(context.Background(), addrs, opts)
}

// DialContext is Dial with cancellation: cancelling ctx abandons the
// remaining connection attempts, and an earlier ctx deadline tightens the
// handshake's. The context governs dialling only, not the client.
func DialContext(ctx context.Context, addrs []string, opts ClientOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{
		opts:     opts,
		guard:    resguard.New(opts.MemoryBudget, opts.Metrics),
		health:   make(map[string]*workerHealth),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		recruits: make(map[chan *workerConn]struct{}),
	}
	c.report.Addrs = append([]string(nil), addrs...)
	var dialErrs []error
	for _, addr := range addrs {
		c.health[addr] = &workerHealth{}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: dial cancelled: %w", err)
		}
		wc, err := dialWorkerContext(ctx, addr, opts.DialTimeout)
		if err != nil {
			dialErrs = append(dialErrs, err)
			c.report.Failures = append(c.report.Failures, DialFailure{Addr: addr, Err: err})
			if opts.AutoReconnect {
				// A placeholder lets the redial loop adopt it later.
				c.conns = append(c.conns, &workerConn{addr: addr, dead: true})
			}
			continue
		}
		c.conns = append(c.conns, wc)
		c.report.Connected++
	}
	if c.report.Connected == 0 {
		return nil, fmt.Errorf("cluster: no workers reachable: %v", errors.Join(dialErrs...))
	}
	if opts.AutoReconnect {
		go c.reconnectLoop()
	}
	return c, nil
}

func dialWorkerContext(ctx context.Context, addr string, timeout time.Duration) (*workerConn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	// The handshake shares the dial budget, so a worker that accepts but
	// never answers cannot stall Dial.
	deadline := time.Now().Add(timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	wc := &workerConn{addr: addr, conn: conn, link: newLink(conn)}
	if err := wc.link.sendHello(protocolVersion, kindHello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake with %s: %w", addr, err)
	}
	version, err := recvHello(durable.NewFrameReader(conn, maxHandshakeLen), kindAck)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake ack from %s: %w", addr, err)
	}
	if version != protocolVersion {
		conn.Close()
		return nil, fmt.Errorf("cluster: worker %s speaks version %d, want %d", addr, version, protocolVersion)
	}
	return wc, nil
}

// lease claims a connection for a batch runner; false when the connection
// is dead or already owned.
func (c *Client) lease(wc *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc.dead || wc.leased {
		return false
	}
	wc.leased = true
	return true
}

// unlease returns a runner's connection to the pool and offers it to any
// in-flight batch, so a straggler's connection rejoins work.
func (c *Client) unlease(wc *workerConn) {
	c.mu.Lock()
	wc.leased = false
	usable := !wc.dead && !c.closed
	c.mu.Unlock()
	if usable {
		c.offer(wc)
	}
}

// leasedConns counts live connections owned by a batch runner.
func (c *Client) leasedConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, wc := range c.conns {
		if !wc.dead && wc.leased {
			n++
		}
	}
	return n
}

// markDead retires a connection after a transport failure and nudges the
// background reconnect loop.
func (c *Client) markDead(wc *workerConn) {
	c.mu.Lock()
	if !wc.dead {
		wc.dead = true
		if wc.conn != nil {
			wc.conn.Close()
		}
	}
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// reconnectLoop runs the redial sweep when a connection dies and again when
// the hold on a still-dead address runs out. It exits when the client is
// closed.
func (c *Client) reconnectLoop() {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		var due <-chan time.Time
		if next, _ := c.redial(false); !next.IsZero() {
			due = arm(timer, time.Until(next))
		}
		select {
		case <-c.done:
			return
		case <-c.kick:
		case <-due:
		}
	}
}

// redial is the one reconnection sweep: it dials every dead connection
// whose address is not held (every one, if force) and offers the revived
// to in-flight batches. A failed dial extends the hold; a successful one
// leaves it, so a worker that accepts connections but fails its tasks backs
// off instead of flapping. It returns the dial errors and when the earliest
// hold on a still-dead connection ends (zero: none).
func (c *Client) redial(force bool) (next time.Time, errs []error) {
	c.mu.Lock()
	var dead []int
	for i, wc := range c.conns {
		if wc.dead {
			dead = append(dead, i)
		}
	}
	c.mu.Unlock()
	for _, i := range dead {
		c.mu.Lock()
		wc := c.conns[i]
		h := c.health[wc.addr]
		until, closed := h.until, c.closed
		c.mu.Unlock()
		if closed {
			return time.Time{}, errs
		}
		if !force && time.Now().Before(until) {
			next = earliest(next, until)
			continue
		}
		fresh, err := dialWorkerContext(context.Background(), wc.addr, c.opts.DialTimeout)
		c.mu.Lock()
		switch {
		case err != nil:
			errs = append(errs, err)
			next = earliest(next, h.fail(time.Now(), false))
		case c.closed || c.conns[i] != wc:
			// Closed meanwhile, or a concurrent sweep revived the slot.
			fresh.conn.Close()
			fresh = nil
		default:
			c.conns[i] = fresh
		}
		c.mu.Unlock()
		if fresh != nil {
			if met := c.opts.Metrics; met != nil {
				met.Reconnects.Inc()
			}
			c.offer(fresh)
		}
	}
	return next, errs
}

// earliest returns the earlier of two times, a zero t counting as none.
func earliest(t, u time.Time) time.Time {
	if t.IsZero() || u.Before(t) {
		return u
	}
	return t
}

// arm resets t to fire after d, discarding an unreceived fire.
func arm(t *time.Timer, d time.Duration) <-chan time.Time {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t.C
}

// offer hands a revived connection to at most one in-flight batch.
func (c *Client) offer(wc *workerConn) {
	c.recruitMu.Lock()
	defer c.recruitMu.Unlock()
	for ch := range c.recruits {
		select {
		case ch <- wc:
			return
		default:
		}
	}
}

// Reconnect re-dials every dead connection once, now, holds regardless. It
// returns how many connections are alive afterwards; per-address failures
// are reported in the error. With AutoReconnect this happens on its own.
func (c *Client) Reconnect() (int, error) {
	_, errs := c.redial(true)
	return c.Workers(), errors.Join(errs...)
}

// Workers reports how many worker connections are still alive.
func (c *Client) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	for _, wc := range c.conns {
		if !wc.dead {
			alive++
		}
	}
	return alive
}

// Close hangs up every worker connection and stops the reconnect loop.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var first error
	for _, wc := range c.conns {
		if wc.conn != nil {
			if err := wc.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
		wc.dead = true
	}
	c.mu.Unlock()
	close(c.done)
	return first
}

// PoisonTaskError reports a block that exhausted its retry budget with
// Attempts failed attempts — transport failures or corrupt verdicts, on any
// connection, the same one included. That almost always means the task
// itself crashes, stalls or garbles whichever worker it lands on, so the
// batch fails with the per-attempt diagnostics instead of cascading.
type PoisonTaskError struct {
	// Block is the failing block's index within the batch.
	Block int
	// Attempts is how many failed attempts the block had.
	Attempts int
	// Causes records "addr: error" for every failed attempt, oldest
	// first.
	Causes []string
}

func (e *PoisonTaskError) Error() string {
	return fmt.Sprintf("cluster: poison task: block %d failed %d attempts: %s",
		e.Block, e.Attempts, strings.Join(e.Causes, "; "))
}

// applicationError marks worker-reported BLOCK-ANALYSIS failures.
type applicationError struct{ msg string }

func (e *applicationError) Error() string { return e.msg }

// corruptResultError marks a round trip whose reply arrived in sync but
// failed verification (a Corrupt verdict or a checksum mismatch): the
// connection stays usable, the answer does not.
type corruptResultError struct{ msg string }

func (e *corruptResultError) Error() string { return e.msg }

// AnalyzeBlocks is AnalyzeBlocksContext without cancellation.
func (c *Client) AnalyzeBlocks(blocks []decomp.Block, combo mcealg.Combo) ([]family.Window, error) {
	return c.AnalyzeBlocksContext(context.Background(), blocks, combo)
}

// AnalyzeBlocksContext is Analyze for a plain batch under one combo.
func (c *Client) AnalyzeBlocksContext(ctx context.Context, blocks []decomp.Block, combo mcealg.Combo) ([]family.Window, error) {
	sel := func(*graph.Graph, *kcore.Scratch) mcealg.Combo { return combo }
	return c.Analyze(ctx, nil, blocks, sel, nil, nil)
}

// attempt is one dispatch-queue entry; hedge marks a speculative copy.
type attempt struct {
	block int
	hedge bool
}

// hedger finds a hedged batch's stragglers from its attempts in flight (at
// most one per connection) and its round trips.
type hedger struct {
	rtt     *telemetry.Histogram
	claimed []atomic.Bool
	wake    chan struct{} // an attempt took off: idle runners re-aim their timers

	mu      sync.Mutex
	flying  map[*workerConn]flight
	twinned []bool // the block has had its one twin
}

type flight struct {
	block int
	start time.Time
}

// fly records that wc has started an attempt at block.
func (h *hedger) fly(wc *workerConn, block int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.flying[wc] = flight{block: block, start: time.Now()}
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// land ends wc's attempt; a successful round trip joins the statistics.
func (h *hedger) land(wc *workerConn, rtt time.Duration, ok bool) {
	if h == nil {
		return
	}
	if ok {
		h.rtt.Observe(int64(rtt))
	}
	h.mu.Lock()
	delete(h.flying, wc)
	h.mu.Unlock()
}

// due returns the block of the oldest unclaimed flight without a twin,
// marked twinned, once it is past the hedge threshold; before, block −1
// and when it will be (zero: no such flight).
func (h *hedger) due(now time.Time) (block int, at time.Time) {
	block = -1
	if h == nil {
		return block, at
	}
	snap := h.rtt.Snapshot()
	if snap.Count < hedgeMinObservations {
		return block, at
	}
	th := max(time.Duration(snap.Quantile(hedgeQuantile)*hedgeMultiplier), hedgeMinDelay)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.flying {
		if !h.twinned[f.block] && !h.claimed[f.block].Load() && (block < 0 || f.start.Add(th).Before(at)) {
			block, at = f.block, f.start.Add(th)
		}
	}
	if block < 0 || now.Before(at) {
		return -1, at
	}
	h.twinned[block] = true
	return block, at
}

// Analyze ships every block to some worker and gathers the cliques,
// indexed like blocks, each the window over the family its answer was
// decoded into. It implements core.Executor: blocks arrive as decomp.Grow
// planned them over g, and the connection runner that takes an attempt
// induces the block into its own scratch, asks sel for the combo and
// encodes the task — so the shared plan is never written, and the
// coordinator holds one induced block per connection.
//
// A retry and a hedge are the same act: the block goes back on the batch's
// queue for whichever connection is free — after a failed attempt, within
// the retry budget, or under Hedge once it is in flight past the hedge
// threshold. Capacity revived by AutoReconnect joins the batch while it
// runs. The call fails when the application rejects a task, when a task
// exhausts its retry budget (*PoisonTaskError), when every worker has died
// (after a 5s grace under AutoReconnect), or when ctx is cancelled, which
// retires connections with a round trip in flight: the wire protocol cannot
// abandon a pending response.
//
// ids and obs are nil for plain batches. With them, every block carries its
// checkpoint identity on the wire, and obs hears of each block's dispatch
// and, the moment its cliques are back, its completion — so a coordinator
// killed mid-batch resumes with every completed block durable. ids must
// index like blocks.
//
// The batch returns once every block has an answer; a straggling round trip
// keeps its connection leased until it resolves. Duplicate answers lose a
// compare-and-swap per block and are dropped, which Lemma 1 makes sound:
// every copy's answer is identical.
func (c *Client) Analyze(ctx context.Context, g *graph.Graph, blocks []decomp.Block, sel func(*graph.Graph, *kcore.Scratch) mcealg.Combo, ids []runlog.BlockID, obs runlog.BatchObserver) ([]family.Window, error) {
	if (ids != nil || obs != nil) && len(ids) != len(blocks) {
		return nil, fmt.Errorf("cluster: %d blocks but %d block IDs", len(blocks), len(ids))
	}
	out := make([]family.Window, len(blocks))
	if len(blocks) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	var alive []*workerConn
	leasedOut := 0
	for _, wc := range c.conns {
		if wc.dead {
			continue
		}
		if wc.leased {
			leasedOut++ // a straggler of an earlier batch still owns it
			continue
		}
		wc.leased = true
		alive = append(alive, wc)
	}
	c.mu.Unlock()
	if len(alive) == 0 && leasedOut == 0 && !c.opts.AutoReconnect {
		return nil, errors.New("cluster: all workers are dead")
	}

	var (
		completed  atomic.Int64
		aliveCount atomic.Int64
		done       = make(chan struct{})
		closeOnce  sync.Once
		errMu      sync.Mutex
		fatal      error
		lastDeath  error
		attempts   = make([]int, len(blocks))
		causes     = make([][]string, len(blocks))
		budget     = c.opts.retryBudget()
		drained    = make(chan struct{}, 1)
		fresh      = make(chan *workerConn, 16)
		claimed    = make([]atomic.Bool, len(blocks)) // first-wins dedup
		picked     = make([]atomic.Bool, len(blocks)) // the block's combo pick is in the telemetry
		hedge      *hedger
		wake       <-chan struct{}
	)
	aliveCount.Store(int64(len(alive)))
	// A block occupies at most one primary/retry slot plus its one twin,
	// so the queue can never block a sender.
	queueCap := len(blocks)
	if c.opts.Hedge {
		hedge = &hedger{rtt: telemetry.NewDurationHistogram(), claimed: claimed, wake: make(chan struct{}, 1),
			flying: make(map[*workerConn]flight), twinned: make([]bool, len(blocks))}
		wake = hedge.wake
		queueCap *= 2
	}
	tasks := make(chan attempt, queueCap)
	for i := range blocks {
		tasks <- attempt{block: i}
	}
	met := c.opts.Metrics
	if met != nil {
		met.QueueDepth.Add(int64(len(blocks)))
	}
	fail := func(err error) {
		errMu.Lock()
		if fatal == nil {
			fatal = err
		}
		errMu.Unlock()
		closeOnce.Do(func() { close(done) })
	}
	finish := func() {
		if completed.Add(1) == int64(len(blocks)) {
			closeOnce.Do(func() { close(done) })
		}
	}
	// requeue dispatches a block again — a retry after a failed attempt or
	// a hedge past the threshold — unless its answer is already claimed.
	requeue := func(a attempt) {
		if claimed[a.block].Load() {
			return
		}
		if met != nil {
			if a.hedge {
				met.HedgedDispatches.Inc()
			} else {
				met.TaskRetries.Inc()
			}
			met.QueueDepth.Add(1)
		}
		tasks <- a
	}
	// chargeAttempt spends one of block i's retries on err and either
	// requeues the block or declares it poison. A poison verdict claims the
	// block first, so a hedged twin still in flight cannot also resolve it.
	chargeAttempt := func(wc *workerConn, i int, err error) {
		errMu.Lock()
		attempts[i]++
		causes[i] = append(causes[i], fmt.Sprintf("%s: %v", wc.addr, err))
		poisoned := budget >= 0 && attempts[i] >= budget
		n, cs := attempts[i], causes[i]
		lastDeath = err
		errMu.Unlock()
		if !poisoned {
			requeue(attempt{block: i})
			return
		}
		if !claimed[i].CompareAndSwap(false, true) {
			return // a twin already delivered the block
		}
		if met != nil {
			met.PoisonTasks.Inc()
		}
		if c.opts.SkipPoisonTasks {
			// Recorded skip: the block's slot stays nil and the batch
			// carries on; callers surface the verdicts.
			c.recordPoison(PoisonTaskError{Block: i, Attempts: n, Causes: cs})
			finish()
		} else {
			fail(&PoisonTaskError{Block: i, Attempts: n, Causes: cs})
		}
	}

	c.recruitMu.Lock()
	c.recruits[fresh] = struct{}{}
	c.recruitMu.Unlock()
	defer func() {
		c.recruitMu.Lock()
		delete(c.recruits, fresh)
		c.recruitMu.Unlock()
	}()

	// process runs one attempt on one connection and reports whether the
	// connection is still usable. Every answer is decoded into a family of
	// its own, so one that loses the claim — possibly after the batch has
	// returned — is dropped without touching what the caller reads.
	process := func(wc *workerConn, a attempt, mat *decomp.Materialiser) bool {
		i := a.block
		hedge.fly(wc, i)
		if met != nil {
			met.TasksInFlight.Add(1)
		}
		var id runlog.BlockID
		if ids != nil {
			id = ids[i]
		}
		if obs != nil {
			obs.BlockDispatched(id)
		}
		t0 := time.Now()
		blk := mat.Materialise(&blocks[i])
		induced := time.Now()
		combo := sel(blk.Graph, &mat.Features)
		if met != nil {
			met.InduceNs.Add(int64(induced.Sub(t0)))
			met.SelectNs.Add(int64(time.Since(induced)))
			if !picked[i].Swap(true) {
				met.ComboPicked(combo.Index(), combo.Label())
			}
		}
		t0 = time.Now() // the round trip proper starts here
		reply := new(family.Family)
		err := c.roundTrip(ctx, wc, i, id, blk, combo, reply)
		rtt := time.Since(t0)
		hedge.land(wc, rtt, err == nil)
		if met != nil {
			met.TasksInFlight.Add(-1)
		}
		var appErr *applicationError
		var corrupt *corruptResultError
		switch {
		case err == nil:
			c.credit(wc.addr, rtt)
			if met != nil {
				met.RoundTripNs.Observe(int64(rtt))
			}
			if !claimed[i].CompareAndSwap(false, true) {
				// A twin already delivered this identical answer.
				if met != nil {
					met.HedgeWasted.Inc()
				}
				return true
			}
			if a.hedge && met != nil {
				met.HedgeWins.Inc()
			}
			cliques := reply.Window()
			if obs != nil {
				// Durability before acknowledgement: the block only counts
				// as completed once its cliques are on disk.
				if oerr := obs.BlockDone(id, cliques); oerr != nil {
					fail(fmt.Errorf("cluster: checkpointing block result: %w", oerr))
					return true
				}
			}
			out[i] = cliques
			finish()
			return true
		case errors.As(err, &appErr):
			if !claimed[i].Load() {
				fail(err) // deterministic; retrying is pointless
			}
			return true
		case errors.Is(err, ctx.Err()):
			// Cancelled between messages: the batch is failing, and
			// the stream is still in sync, so the connection stays.
			fail(err)
			return false
		case errors.As(err, &corrupt):
			// The reply arrived in sync but failed verification: the
			// connection stays, the address is held back, and the block
			// spends one retry.
			c.charge(wc.addr, true)
			chargeAttempt(wc, i, err)
			return true
		}
		// Transport failure: hold the address back before retiring the
		// connection wakes the redial loop, and requeue the block unless
		// it has exhausted its retry budget.
		c.charge(wc.addr, false)
		c.markDead(wc)
		chargeAttempt(wc, i, err)
		if aliveCount.Add(-1) == 0 {
			select {
			case drained <- struct{}{}:
			default:
			}
		}
		return false
	}

	runner := func(wc *workerConn) {
		defer c.unlease(wc)
		mat := decomp.NewMaterialiser(g)
		// The runner's one timer: it waits out the address's hold, then for
		// the next straggler to cross the hedge threshold.
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		for {
			if d := c.hold(wc.addr, time.Now()); d > 0 {
				select {
				case <-done:
					return
				case <-arm(timer, d):
				}
			}
			var due <-chan time.Time
			if len(tasks) == 0 {
				// Hedging absorbs the tail only: it never competes with
				// queued work for a connection.
				if i, at := hedge.due(time.Now()); i >= 0 {
					requeue(attempt{block: i, hedge: true})
				} else if !at.IsZero() {
					due = arm(timer, time.Until(at))
				}
			}
			select {
			case <-done:
				return
			case <-due:
			case <-wake:
			case a := <-tasks:
				if met != nil {
					met.QueueDepth.Add(-1)
				}
				if claimed[a.block].Load() {
					continue // stale entry: the block already has its answer
				}
				// Memory guard: over budget, dispatch pauses here; one
				// runner is always admitted, so the batch never deadlocks.
				c.guard.Enter(done)
				ok := process(wc, a, mat)
				c.guard.Exit()
				if !ok {
					return
				}
			}
		}
	}

	// The recruiter folds revived or returned connections into the batch.
	// When the last runner dies, the batch fails — after allDeadGrace if
	// AutoReconnect or an earlier batch's straggler may still return one.
	go func() {
		grace := time.NewTimer(time.Hour)
		grace.Stop()
		defer grace.Stop()
		var expired <-chan time.Time
		for {
			select {
			case <-done:
				return
			case wc := <-fresh:
				if c.lease(wc) {
					aliveCount.Add(1)
					expired = nil
					go runner(wc)
				}
				continue
			case <-drained:
				if aliveCount.Load() > 0 {
					continue // stale: capacity already returned
				}
				if c.opts.AutoReconnect || c.leasedConns() > 0 {
					expired = arm(grace, allDeadGrace)
					continue
				}
			case <-expired:
			}
			errMu.Lock()
			err := errors.New("cluster: all workers are dead")
			if lastDeath != nil {
				err = fmt.Errorf("cluster: all workers failed, last error: %w", lastDeath)
			}
			errMu.Unlock()
			fail(err)
			return
		}
	}()
	if len(alive) == 0 {
		drained <- struct{}{} // wait out the grace period for revived capacity
	}

	// A cancellation expires the deadline of every live connection,
	// unblocking runners stuck in I/O. Every round trip sets its own
	// deadline, so one left expired on an idle connection is harmless.
	defer context.AfterFunc(ctx, func() {
		fail(ctx.Err())
		c.mu.Lock()
		for _, wc := range c.conns {
			if !wc.dead && wc.conn != nil {
				wc.conn.SetDeadline(time.Now())
			}
		}
		c.mu.Unlock()
	})()

	for _, wc := range alive {
		go runner(wc)
	}
	<-done
	if met != nil {
		// Entries stranded in the queue by a fatal error, or twins whose
		// primary won, are no longer pending work.
		for {
			select {
			case <-tasks:
				met.QueueDepth.Add(-1)
				continue
			default:
			}
			break
		}
	}

	errMu.Lock()
	defer errMu.Unlock()
	if fatal != nil {
		return nil, fatal
	}
	return out, nil
}

// taskDeadline resolves TaskTimeout for a block of nodes and edges.
func (c *Client) taskDeadline(nodes, edges int) time.Duration {
	if c.opts.TaskTimeout < 0 {
		return 0
	}
	if c.opts.TaskTimeout > 0 {
		return c.opts.TaskTimeout
	}
	// Generous and scaled with the block: it catches hung workers, never
	// slow ones.
	return 30*time.Second + time.Duration(nodes+edges)*time.Millisecond + 2*c.opts.Latency
}

// roundTrip sends one task and waits for its result under the simulated
// latency and the task deadline, appending the block's cliques to reply.
// bid is the block's checkpoint identity (zero when not checkpointing);
// the worker must echo it.
func (c *Client) roundTrip(ctx context.Context, wc *workerConn, id int, bid runlog.BlockID, b *decomp.Block, combo mcealg.Combo, reply *family.Family) error {
	l := wc.link
	want := taskID{ID: id, Level: bid.Level, Plan: bid.Plan}
	var err error
	if l.payload, err = (&blockTask{taskID: want, Block: b, Combo: combo}).appendTo(l.payload[:0]); err != nil {
		// Not a block the wire can carry; no worker will change that.
		return &applicationError{msg: err.Error()}
	}
	if err := c.simulateLink(ctx); err != nil {
		return err // the bare ctx error: no bytes moved, the stream is in sync
	}
	var deadline time.Time // none
	if d := c.taskDeadline(b.Graph.N(), b.Graph.M()); d > 0 {
		deadline = time.Now().Add(d)
	}
	wc.conn.SetDeadline(deadline)
	met := c.opts.Metrics
	if err := l.send(); err != nil {
		return fmt.Errorf("cluster: send to %s: %w", wc.addr, err)
	}
	if met != nil {
		met.BytesSent.Add(frameLen(l.payload))
	}
	p, err := l.in.Next()
	if err != nil && !errors.Is(err, durable.ErrChecksum) {
		return fmt.Errorf("cluster: receive from %s: %w", wc.addr, err)
	}
	if met != nil {
		met.BytesReceived.Add(frameLen(p))
	}
	corrupt := func(format string) error {
		if met != nil {
			met.CorruptResults.Inc()
		}
		return &corruptResultError{msg: fmt.Sprintf("cluster: "+format+" (checksum mismatch)", id, wc.addr)}
	}
	if err != nil {
		return corrupt("result %d from %s corrupted in flight")
	}
	res, err := parseResult(p, reply)
	if err != nil {
		return fmt.Errorf("cluster: receive from %s: %w", wc.addr, err)
	}
	if res.Corrupt {
		// The worker could not trust the task frame, its identity included,
		// so the verdict is matched to this round trip by position alone.
		return corrupt("task %d corrupted in flight to %s")
	}
	if res.taskID != want {
		return fmt.Errorf("cluster: worker %s answered task %d (block L%d/B%d), want %d (L%d/B%d)",
			wc.addr, res.ID, res.Level, res.Plan, id, bid.Level, bid.Plan)
	}
	if res.Err != "" {
		return &applicationError{msg: fmt.Sprintf("cluster: worker %s: %s", wc.addr, res.Err)}
	}
	return c.simulateLink(ctx)
}

// simulateLink sleeps for the configured latency, waking early on
// cancellation.
func (c *Client) simulateLink(ctx context.Context) error {
	if c.opts.Latency <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(c.opts.Latency)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
