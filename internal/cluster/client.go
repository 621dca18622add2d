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
	"mce/internal/dtree"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/resguard"
	"mce/internal/runlog"
	"mce/internal/telemetry"
)

// ClientOptions tunes the coordinator side of the cluster.
type ClientOptions struct {
	// TaskTimeout bounds one task round trip; a worker that does not
	// answer inside it is retired and its block requeued, so a hung worker
	// cannot stall a batch. 0 derives 30s plus 1ms per block member and per
	// unit of the members' degree sum in the level graph, plus twice
	// Latency; negative disables deadlines.
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
// waits allDeadGrace for capacity to return. Each connection attempt, the
// handshake included, has dialTimeout (or its context's earlier deadline).
const (
	dialTimeout          = 5 * time.Second
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
	class  []byte // the class bytes of the task being sent
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
		wc, err := dialWorkerContext(ctx, addr)
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

func dialWorkerContext(ctx context.Context, addr string) (*workerConn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	// The handshake shares the dial budget, so a worker that accepts but
	// never answers cannot stall Dial.
	deadline := time.Now().Add(dialTimeout)
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
		fresh, err := dialWorkerContext(context.Background(), wc.addr)
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
			c.opts.Metrics.Inc(telemetry.Reconnects)
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

// attempt is one dispatch-queue entry; hedge marks a speculative copy.
type attempt struct {
	block int
	hedge bool
}

// queue is a batch's dispatch queue: each block as it is planned, and each
// retry or hedge as it is due, in arrival order. It grows with the blocks
// planned but not yet taken, never with the plan's bound.
type queue struct {
	mu    sync.Mutex
	items []attempt
	wake  chan struct{} // an item arrived, or an attempt took off: idle runners look again
}

// put queues a and wakes an idle runner.
func (q *queue) put(a attempt) {
	q.mu.Lock()
	q.items = append(q.items, a)
	q.mu.Unlock()
	q.poke()
}

// take dequeues the oldest item; ok is false when there is none. Taking one
// of several wakes the next idle runner for the rest.
func (q *queue) take() (a attempt, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return a, false
	}
	a, q.items = q.items[0], q.items[1:]
	if len(q.items) > 0 {
		q.poke()
	}
	return a, true
}

func (q *queue) poke() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// hedger finds a hedged batch's stragglers from its attempts in flight (at
// most one per connection) and its round trips.
type hedger struct {
	rtt     *telemetry.Histogram
	claimed []atomic.Bool
	q       *queue // poked when an attempt takes off: idle runners re-aim their timers

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
	h.q.poke()
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
// indexed by plan position, each the window over the family its answer was
// decoded into. It implements core.Executor: a feeder takes each block the
// moment decomp.GrowSeq plans it over g and queues it for whichever
// connection is free, and the batch is complete once every block of the
// sealed plan has its answer. A task carries a block's membership, g's
// content address and rule; the worker induces the block from its own copy
// of g, picks the combo by rule and analyses it. g crosses the wire only to
// a worker that answers that it does not hold it, once per worker while the
// worker keeps it, within the same attempt and without spending a retry.
// The answer that wins a block's claim brings the worker's combo pick and
// kernel counts into the client's telemetry.
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
// Every block carries its identity runlog.BlockID{Level: depth, Plan: i} on
// the wire. With obs, the feeder offers each block to obs first — a block an
// earlier session finished is served from there and never shipped — and obs
// hears of each completion the moment its cliques are back, so a
// coordinator killed mid-batch resumes with every completed block durable.
//
// Per block the batch holds one claim byte (and under Hedge one twin flag),
// sized by the plan's bound; it holds the rest — queue entries, failure
// causes, answers — only for blocks planned, failed or answered. A straggling round trip keeps its connection
// leased until it resolves. Duplicate answers lose a compare-and-swap per
// block and are dropped, which Lemma 1 makes sound: every copy's answer is
// identical.
func (c *Client) Analyze(ctx context.Context, g *graph.Graph, plan *decomp.Plan, rule dtree.Rule, depth int, obs runlog.BatchObserver) ([]family.Window, error) {
	if plan.Sealed() && plan.Len() == 0 {
		return nil, nil
	}
	if g == nil {
		return nil, errors.New("cluster: no level graph: workers induce blocks from the graph they were planned over")
	}
	lv := &level{g: g, key: keyOf(g), rule: rule}
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

	type answer struct {
		i int
		w family.Window
	}
	var (
		completed  atomic.Int64
		total      atomic.Int64 // the sealed plan's length; −1 before the seal
		aliveCount atomic.Int64
		done       = make(chan struct{})
		closeOnce  sync.Once
		errMu      sync.Mutex
		fatal      error
		lastDeath  error
		failed     = make(map[int][]string) // the causes of each block's failed attempts
		answers    []answer
		budget     = c.opts.retryBudget()
		drained    = make(chan struct{}, 1)
		fresh      = make(chan *workerConn, 16)
		claimed    = make([]atomic.Bool, plan.Bound()) // first-wins dedup
		q          = &queue{wake: make(chan struct{}, 1)}
		hedge      *hedger
	)
	total.Store(-1)
	aliveCount.Store(int64(len(alive)))
	if c.opts.Hedge {
		hedge = &hedger{rtt: telemetry.NewDurationHistogram(), claimed: claimed, q: q,
			flying: make(map[*workerConn]flight), twinned: make([]bool, plan.Bound())}
	}
	met := c.opts.Metrics
	fail := func(err error) {
		errMu.Lock()
		if fatal == nil {
			fatal = err
		}
		errMu.Unlock()
		closeOnce.Do(func() { close(done) })
	}
	// finish counts one block resolved; the last of a sealed plan ends the
	// batch. The feeder stores the total after the seal and then looks at
	// the count, so one of the two sees the other's store.
	finish := func() {
		if completed.Add(1) == total.Load() {
			closeOnce.Do(func() { close(done) })
		}
	}
	resolve := func(i int, w family.Window) {
		errMu.Lock()
		answers = append(answers, answer{i, w})
		errMu.Unlock()
		finish()
	}
	// requeue dispatches a block again — a retry after a failed attempt or
	// a hedge past the threshold — unless its answer is already claimed.
	requeue := func(a attempt) {
		if claimed[a.block].Load() {
			return
		}
		if a.hedge {
			met.Inc(telemetry.HedgedDispatches)
		} else {
			met.Inc(telemetry.TaskRetries)
		}
		met.Move(telemetry.QueueDepth, 1)
		q.put(a)
	}
	// chargeAttempt spends one of block i's retries on err and either
	// requeues the block or declares it poison. A poison verdict claims the
	// block first, so a hedged twin still in flight cannot also resolve it.
	chargeAttempt := func(wc *workerConn, i int, err error) {
		errMu.Lock()
		failed[i] = append(failed[i], fmt.Sprintf("%s: %v", wc.addr, err))
		cs := failed[i]
		poisoned := budget >= 0 && len(cs) >= budget
		lastDeath = err
		errMu.Unlock()
		if !poisoned {
			requeue(attempt{block: i})
			return
		}
		if !claimed[i].CompareAndSwap(false, true) {
			return // a twin already delivered the block
		}
		met.Inc(telemetry.PoisonTasks)
		if c.opts.SkipPoisonTasks {
			// Recorded skip: the block's slot stays empty and the batch
			// carries on; callers surface the verdicts.
			c.recordPoison(PoisonTaskError{Block: i, Attempts: len(cs), Causes: cs})
			finish()
		} else {
			fail(&PoisonTaskError{Block: i, Attempts: len(cs), Causes: cs})
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

	// The feeder takes each block as it is planned: served from obs when an
	// earlier session finished it, queued otherwise. It stops at the seal,
	// or at the first block after the batch has failed. Nothing waits for
	// it: on a failed batch the plan's writer seals only once Analyze has
	// returned, and the seal, which the writer always makes, lets it exit.
	go func() {
		for i := 0; ; i++ {
			b := plan.Block(i) // waits while the grower is behind
			select {
			case <-done:
				return
			default:
			}
			if b == nil {
				break
			}
			if obs != nil {
				if served, ok := obs.BlockDispatched(runlog.BlockID{Level: depth, Plan: i}, b.Digest()); ok {
					claimed[i].Store(true)
					resolve(i, served)
					continue
				}
			}
			met.Move(telemetry.QueueDepth, 1)
			q.put(attempt{block: i})
		}
		n := int64(plan.Len())
		total.Store(n)
		if completed.Load() == n {
			closeOnce.Do(func() { close(done) })
		}
	}()

	// process runs one attempt on one connection and reports whether the
	// connection is still usable. Every answer is decoded into a family of
	// its own, so one that loses the claim — possibly after the batch has
	// returned — is dropped without touching what the caller reads.
	process := func(wc *workerConn, a attempt) bool {
		i := a.block
		id, b := runlog.BlockID{Level: depth, Plan: i}, plan.Block(i)
		hedge.fly(wc, i)
		met.Move(telemetry.TasksInFlight, 1)
		t0 := time.Now()
		reply := new(family.Family)
		counts, err := c.roundTrip(ctx, wc, i, id, lv, b, reply)
		rtt := time.Since(t0)
		hedge.land(wc, rtt, err == nil)
		met.Move(telemetry.TasksInFlight, -1)
		var appErr *applicationError
		var corrupt *corruptResultError
		switch {
		case err == nil:
			c.credit(wc.addr, rtt)
			met.Observe(telemetry.RoundTripNs, rtt)
			if !claimed[i].CompareAndSwap(false, true) {
				// A twin already delivered this identical answer.
				met.Inc(telemetry.HedgeWasted)
				return true
			}
			if a.hedge {
				met.Inc(telemetry.HedgeWins)
			}
			met.ComboPicked(int(counts.Combo))
			met.ComboAnalyzed(int(counts.Combo), time.Duration(counts.KernelNs))
			met.Add(telemetry.RecursionNodes, counts.Nodes)
			met.Add(telemetry.PivotSelections, counts.Pivots)
			cliques := reply.Window()
			if obs != nil {
				// Durability before acknowledgement: the block only counts
				// as completed once its cliques are on disk.
				if oerr := obs.BlockDone(id, b.Digest(), cliques); oerr != nil {
					fail(fmt.Errorf("cluster: checkpointing block result: %w", oerr))
					return true
				}
			}
			resolve(i, cliques)
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
		// The runner's one timer: it waits out the address's hold, then for
		// the next straggler to cross the hedge threshold.
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		for {
			if d := c.hold(wc.addr, time.Now()); d > 0 {
				q.poke() // a wake this runner took is another runner's to use
				select {
				case <-done:
					return
				case <-arm(timer, d):
				}
			}
			select {
			case <-done:
				return
			default:
			}
			a, ok := q.take()
			if !ok {
				// Hedging absorbs the tail only: it never competes with
				// queued work for a connection.
				var due <-chan time.Time
				if i, at := hedge.due(time.Now()); i >= 0 {
					requeue(attempt{block: i, hedge: true})
					continue
				} else if !at.IsZero() {
					due = arm(timer, time.Until(at))
				}
				select {
				case <-done:
					return
				case <-due:
				case <-q.wake:
				}
				continue
			}
			met.Move(telemetry.QueueDepth, -1)
			if claimed[a.block].Load() {
				continue // stale entry: the block already has its answer
			}
			// Memory guard: over budget, dispatch pauses here; one
			// runner is always admitted, so the batch never deadlocks.
			c.guard.Enter(done)
			ok = process(wc, a)
			c.guard.Exit()
			if !ok {
				return
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
	// Entries stranded in the queue by a fatal error, or twins whose
	// primary won, are no longer pending work.
	q.mu.Lock()
	met.Move(telemetry.QueueDepth, -int64(len(q.items)))
	q.items = nil
	q.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err // the grower stopped early: the plan is not the level's
	}
	errMu.Lock()
	defer errMu.Unlock()
	if fatal != nil {
		return nil, fatal
	}
	out := make([]family.Window, plan.Len())
	for _, a := range answers {
		out[a.i] = a.w
	}
	return out, nil
}

// level is what every task of one Analyze call shares: the level graph,
// its content address, the combo-selection rule and, once a worker has
// asked for it, the graph's encoding, which every connection sends from.
type level struct {
	g    *graph.Graph
	key  graphKey
	rule dtree.Rule

	once    sync.Once
	encoded []byte
	err     error
}

// encoding returns the level graph's encoding, made on the first call.
func (lv *level) encoding() ([]byte, error) {
	lv.once.Do(func() { lv.encoded, lv.err = appendLevel(nil, lv.g) })
	return lv.encoded, lv.err
}

// work sizes block b's derived deadline: its members plus their degree sum
// in the level graph, which is what inducing and analysing it scans.
func (lv *level) work(b *decomp.Block) int {
	n := len(b.Orig)
	for _, v := range b.Orig {
		n += lv.g.Degree(v)
	}
	return n
}

// taskDeadline resolves TaskTimeout for a block of the given work.
func (c *Client) taskDeadline(work int) time.Duration {
	if c.opts.TaskTimeout < 0 {
		return 0
	}
	if c.opts.TaskTimeout > 0 {
		return c.opts.TaskTimeout
	}
	// Generous and scaled with the block: it catches hung workers, never
	// slow ones.
	return 30*time.Second + time.Duration(work)*time.Millisecond + 2*c.opts.Latency
}

// roundTrip sends block b's task and waits for its result under the
// simulated latency and the task deadline, appending the block's cliques to
// reply and returning the worker's counts. bid is the block's checkpoint
// identity (zero when not checkpointing); the worker must echo it. A worker
// that does not hold the level graph says so, and the task goes again on
// the same connection with the graph attached.
func (c *Client) roundTrip(ctx context.Context, wc *workerConn, id int, bid runlog.BlockID, lv *level, b *decomp.Block, reply *family.Family) (blockCounts, error) {
	want := taskID{ID: id, Level: bid.Level, Plan: bid.Plan}
	class, err := appendClasses(wc.class[:0], b)
	wc.class = class
	if err != nil {
		// Not a block the wire can carry; no worker will change that.
		return blockCounts{}, &applicationError{msg: fmt.Sprintf("cluster: task %d: %v", id, err)}
	}
	task := blockTask{taskID: want, Graph: lv.key, Rule: lv.rule, Orig: b.Orig, Class: class}
	timeout := c.taskDeadline(lv.work(b))
	var level []byte // the level graph, once the worker said it lacks it
	for {
		res, err := c.exchange(ctx, wc, &task, level, timeout, reply)
		if err != nil {
			return blockCounts{}, err
		}
		if res.taskID != want {
			return blockCounts{}, fmt.Errorf("cluster: worker %s answered task %d (block L%d/B%d), want %d (L%d/B%d)",
				wc.addr, res.ID, res.Level, res.Plan, id, bid.Level, bid.Plan)
		}
		switch {
		case res.Unknown && level == nil:
			if level, err = lv.encoding(); err != nil {
				return blockCounts{}, &applicationError{msg: fmt.Sprintf("cluster: task %d: %v", id, err)}
			}
			reply.Truncate(0)
			continue
		case res.Unknown:
			return blockCounts{}, fmt.Errorf("cluster: worker %s does not hold the level graph it was sent with task %d", wc.addr, id)
		case res.Err != "":
			return blockCounts{}, &applicationError{msg: fmt.Sprintf("cluster: worker %s: %s", wc.addr, res.Err)}
		}
		return res.blockCounts, nil
	}
}

// exchange sends one task message, with the encoded level graph attached
// when level is not nil, and reads its answer, each leg under the simulated
// latency; the answer's cliques go onto reply.
func (c *Client) exchange(ctx context.Context, wc *workerConn, task *blockTask, level []byte, timeout time.Duration, reply *family.Family) (blockResult, error) {
	l := wc.link
	var err error
	if l.payload, err = task.appendHead(l.payload[:0], level != nil); err != nil {
		return blockResult{}, &applicationError{msg: err.Error()}
	}
	if err := c.simulateLink(ctx); err != nil {
		return blockResult{}, err // the bare ctx error: no bytes moved, the stream is in sync
	}
	var deadline time.Time // none
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	wc.conn.SetDeadline(deadline)
	met := c.opts.Metrics
	if err := l.sendWith(level); err != nil {
		return blockResult{}, fmt.Errorf("cluster: send to %s: %w", wc.addr, err)
	}
	met.Add(telemetry.BytesSent, frameLen(l.payload)+int64(len(level)))
	p, err := l.in.Next()
	if err != nil && !errors.Is(err, durable.ErrChecksum) {
		return blockResult{}, fmt.Errorf("cluster: receive from %s: %w", wc.addr, err)
	}
	met.Add(telemetry.BytesReceived, frameLen(p))
	corrupt := func(format string) error {
		met.Inc(telemetry.CorruptResults)
		return &corruptResultError{msg: fmt.Sprintf("cluster: "+format+" (checksum mismatch)", task.ID, wc.addr)}
	}
	if err != nil {
		return blockResult{}, corrupt("result %d from %s corrupted in flight")
	}
	res, err := parseResult(p, reply)
	if err != nil {
		return blockResult{}, fmt.Errorf("cluster: receive from %s: %w", wc.addr, err)
	}
	if res.Corrupt {
		// The worker could not trust the task frame, its identity included,
		// so the verdict is matched to this round trip by position alone.
		return blockResult{}, corrupt("task %d corrupted in flight to %s")
	}
	return res, c.simulateLink(ctx)
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
