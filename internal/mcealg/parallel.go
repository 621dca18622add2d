// Intra-block parallel Bron–Kerbosch: a work-stealing pool over (R, P, X)
// subproblems, in the shape of the shared-memory parallel MCE literature
// (Das et al., arXiv 1807.09417): per-vertex fan-out at the subproblem root
// seeded from the pivot-ordered candidate set, plus subtree-splitting work
// donation when a worker runs dry mid-run.
//
// Determinism. The Bron–Kerbosch recursion tree is a pure function of
// (adjacency, R, P, X): the pivot choice scans P (and X) in ascending bit
// order and every candidate iteration is over a word window, so the tree —
// and therefore the set of leaves — is identical no matter how execution is
// divided among workers. Splitting a node materialises exactly the child
// subproblems the sequential loop would have recursed into, with the same
// P/X mutation order, so parallelism only moves task boundaries, never the
// tree. Each emitted clique is keyed by the child-index path from the
// subproblem root to its leaf; sorting the keys lexicographically is
// sorting leaves into depth-first order, which is precisely the sequential
// emission order. The parallel mode therefore emits bit-identical cliques
// in bit-identical order to the sequential enumerator, which keeps
// checkpoint segment digests and the Lemma 1 filter's input unchanged.
package mcealg

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"mce/internal/family"
)

// Par configures intra-enumeration parallelism for a Runner.
type Par struct {
	// Workers is the goroutine count of the work-stealing pool. 0 means
	// "auto": GOMAXPROCS for a BitSetsParallel combo, sequential otherwise.
	// 1 forces the sequential recursion regardless of combo.
	Workers int
	// MinCandidates is the smallest |P| worth fanning out; subproblems
	// below it run sequentially on the calling goroutine, skipping the
	// pool-spawn cost. 0 means the default of 16.
	MinCandidates int
	// SplitGate, when non-nil, is consulted before a mid-run subtree
	// donation: returning false suppresses the split (the worker keeps
	// recursing sequentially, allocating nothing new). The executors wire
	// the resguard memory budget here, so deque growth counts against the
	// run's heap budget. Root fan-out is not gated — it is the baseline
	// decomposition, bounded by |P| snapshots.
	SplitGate func() bool
}

// defaultMinCandidates balances pool-spawn cost (~a few µs) against the
// smallest subproblems worth sharing; kernels with tiny neighbourhoods stay
// on the calling goroutine.
const defaultMinCandidates = 16

func (p Par) minCandidates() int {
	if p.MinCandidates > 0 {
		return p.MinCandidates
	}
	return defaultMinCandidates
}

// maxSplitDepth stops donation below this recursion depth: tasks that deep
// are too small to be worth their snapshot cost, and the path keys stay
// short.
const maxSplitDepth = 64

// parTask is one stealable MCE subproblem. path is the child-index route
// from the subproblem root to this task's node — the determinism key. The
// task owns R and px, the windows P | X, outright.
type parTask struct {
	path []uint32
	alg  Algorithm
	R    []int32
	px   []uint64
}

// cliqueRun is a maximal contiguous stretch of cliques one worker emitted
// in depth-first order. Between two splits a worker's emission IS the
// sequential DFS order, so only run boundaries — task starts and subtree
// donations — need a sort key: the leaf path of the run's first clique.
// Runs are disjoint DFS intervals, so ordering them by first-leaf key and
// concatenating reproduces the global sequential order at a cost of one key
// per run instead of one per clique. The cliques are a window into the
// family of the worker that emitted them.
type cliqueRun struct {
	key []uint32
	family.Window
}

// workDeque is one worker's double-ended task queue: the owner pushes and
// pops at the tail (depth-first, cache-warm), thieves steal from the head
// (the largest subtrees, minimising steal traffic). A plain mutex per deque
// is deliberate: steals are rare, the critical sections are a few pointer
// moves, and the -race matrix must hold at every GOMAXPROCS.
type workDeque struct {
	mu  sync.Mutex
	buf []*parTask
}

func (d *workDeque) push(t *parTask) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

// pop removes the newest task (owner side).
func (d *workDeque) pop() *parTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		return nil
	}
	t := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = nil
	d.buf = d.buf[:len(d.buf)-1]
	return t
}

// steal removes the oldest task (thief side).
func (d *workDeque) steal() *parTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		return nil
	}
	t := d.buf[0]
	copy(d.buf, d.buf[1:])
	d.buf[len(d.buf)-1] = nil
	d.buf = d.buf[:len(d.buf)-1]
	return t
}

// parPool coordinates one subproblem's workers. Lifetime is a single
// Runner.Subproblem call: spawn, drain, merge, done.
type parPool struct {
	gate func() bool

	deques  []workDeque
	workers []*parWorker

	// pending counts tasks created but not finished; the run is over when
	// it reaches zero (children are counted before their parent finishes,
	// so it can never dip to zero early).
	pending atomic.Int64
	// hungry counts workers that found every deque empty and are about to
	// wait — the donation signal the split heuristic reads.
	hungry atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool // no more work will appear: drained or poisoned
	panicVal any  // first worker panic, re-raised on the caller
	wg       sync.WaitGroup
}

// parWorker is one goroutine of the pool, with its own enumerator (frame
// stack and counters; the graph and the packed rows are shared read-only)
// and its own output family — nothing here is touched by another goroutine
// while the pool runs. The worker is the enumerator's split hook: the one
// recursion asks it, at every node, whether the children become tasks.
type parWorker struct {
	id   int
	pool *parPool
	e    *enumerator[[]uint64]
	task *parTask // the running task: its path and len(R) anchor leafPath
	out  family.Family
	runs []cliqueRun
	// newRun marks the next emitted clique as a run boundary: set at task
	// start and after every donation, the two places the worker's emission
	// stops being DFS-contiguous.
	newRun bool
}

// testHookTaskStart, when non-nil, runs at the start of every task — a test
// seam for panic-propagation coverage. Always nil in production.
var testHookTaskStart func()

// parallelSubproblem fans MCE(R, P, X) out over a fresh pool and hands the
// merged cliques to s in sequential order. It runs on the slice window:
// Reset gives a runner with Par.Workers > 1 no other.
func (r *Runner) parallelSubproblem(R []int32, P, X []uint64, s Sink) {
	p := &parPool{gate: r.par.SplitGate}
	p.cond = sync.NewCond(&p.mu)
	p.deques = make([]workDeque, r.par.Workers)
	p.workers = make([]*parWorker, r.par.Workers)
	for i := range p.workers {
		w := &parWorker{id: i, pool: p}
		w.e = &enumerator[[]uint64]{rows: r.es.rows, sink: Sink{Emit: w.record}, par: w}
		w.e.target(r.es.g, r.es.w, r.es.packed)
		p.workers[i] = w
	}

	px := make([]uint64, 2*r.w)
	copy(px, P)
	copy(px[r.w:], X)
	root := &parTask{alg: r.combo.Alg, R: R, px: px}
	p.pending.Store(1)
	p.deques[0].push(root)

	for _, w := range p.workers {
		p.wg.Add(1)
		go p.runWorker(w)
	}
	p.wg.Wait()
	if p.panicVal != nil {
		panic(p.panicVal)
	}

	// Merge: runs are disjoint DFS intervals, so sorting them by first-leaf
	// path and concatenating reproduces the sequential emission order — one
	// key comparison per run, not per clique. Counters fold into the
	// runner's enumerator here, single-threaded — no atomics anywhere in
	// the recursion.
	total := 0
	for _, w := range p.workers {
		total += len(w.runs)
		r.es.nodes += w.e.nodes
		r.es.pivots += w.e.pivots
	}
	all := make([]cliqueRun, 0, total)
	for _, w := range p.workers {
		all = append(all, w.runs...)
	}
	slices.SortFunc(all, func(a, b cliqueRun) int { return slices.Compare(a.key, b.key) })
	for _, run := range all {
		for i := 0; i < run.Count; i++ {
			c := run.At(i)
			clique := s.room(len(c), r.es.buf)
			for _, v := range c {
				if s.Orig != nil {
					v = s.Orig[v]
				}
				clique = append(clique, v)
			}
			r.es.buf = s.deliver(clique, r.es.buf)
		}
	}
}

// runWorker is the pool goroutine body: pop own work, steal otherwise, wait
// when the whole pool is dry. A panicking task poisons the pool — every
// worker unwinds and the caller re-panics, preserving the cluster worker's
// per-task panic isolation.
func (p *parPool) runWorker(w *parWorker) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.poison(r)
		}
	}()
	for {
		t := p.find(w.id)
		if t == nil {
			return
		}
		w.runTask(t)
		p.finishTask()
	}
}

// find returns the next task for worker id, blocking until one appears or
// the pool closes. The double sweep around the condition wait closes the
// missed-wakeup window: donors broadcast while holding p.mu, so a push that
// raced the first (unlocked) sweep is caught by the second (locked) one.
func (p *parPool) find(id int) *parTask {
	for {
		if t := p.sweep(id); t != nil {
			return t
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		p.hungry.Add(1)
		if t := p.sweep(id); t != nil {
			p.hungry.Add(-1)
			p.mu.Unlock()
			return t
		}
		p.cond.Wait()
		p.hungry.Add(-1)
		p.mu.Unlock()
	}
}

// sweep tries the worker's own deque (newest first), then every peer
// (oldest first).
func (p *parPool) sweep(id int) *parTask {
	if t := p.deques[id].pop(); t != nil {
		return t
	}
	for k := 1; k < len(p.deques); k++ {
		if t := p.deques[(id+k)%len(p.deques)].steal(); t != nil {
			return t
		}
	}
	return nil
}

// finishTask retires one task; the last one out closes the pool.
func (p *parPool) finishTask() {
	if p.pending.Add(-1) == 0 {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// poison records a worker panic and releases everyone; leftover deque
// entries are abandoned — the caller re-raises, nothing is emitted.
func (p *parPool) poison(v any) {
	p.mu.Lock()
	if p.panicVal == nil {
		p.panicVal = v
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// runTask executes one subproblem on the worker's enumerator. Eppstein
// appears only on the root task (its children are Tomita-pivoted, as in the
// sequential recursion).
//
//mce:hotpath work-stealing task body
func (w *parWorker) runTask(t *parTask) {
	if testHookTaskStart != nil {
		testHookTaskStart()
	}
	w.task = t
	w.newRun = true
	half := len(t.px) / 2
	w.e.solve(t.alg, t.R, t.px[:half], t.px[half:])
}

// leafPath is the child-index route from the subproblem root to the node
// the recursion is at: the task's own path, then one index per node R has
// gained within the task. The recursion keeps no path stack — frame j's
// cand window is never written below its node, and the child index of the
// candidate it descended through is the number of candidates below it.
func (w *parWorker) leafPath() []uint32 {
	d := len(w.e.R) - len(w.task.R)
	path := make([]uint32, len(w.task.path), len(w.task.path)+d+1)
	copy(path, w.task.path)
	for j := 0; j < d; j++ {
		cand := w.e.stack[j].cand
		v := w.e.R[len(w.task.R)+j]
		idx := bits.OnesCount64(cand[v>>6] & (1<<(uint(v)&63) - 1))
		path = append(path, uint32(idx+count(cand[:v>>6])))
	}
	return path
}

// split decides whether the children of the node at frame d become tasks,
// and hands them to splitOrdered if so. The root always fans out (the
// per-vertex top-level decomposition); deeper nodes donate only when some
// worker is hungry, the subtree is shallow enough to be worth sharing, and
// the memory gate allows more buffered work.
func (w *parWorker) split(alg Algorithm, d int) bool {
	p := w.pool
	if depth := len(w.task.path) + len(w.e.R) - len(w.task.R); depth > 0 {
		if p.hungry.Load() == 0 || depth >= maxSplitDepth {
			return false
		}
		if p.gate != nil && !p.gate() {
			return false
		}
	}
	cand := w.e.stack[d].cand
	n := count(cand)
	if n < 2 {
		return false
	}
	order := make([]int32, 0, n)
	for i, word := range cand {
		for ; word != 0; word &= word - 1 {
			order = append(order, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
	w.splitOrdered(alg, d, order)
	return true
}

// splitOrdered snapshots the child of frame d through each node of order
// as an independent task — same iteration, same P/X mutations as the
// sequential loop, so the recursion tree is unchanged — and pushes them in
// reverse onto the worker's own deque (pop order = depth-first order;
// thieves take from the other end, grabbing the widest subtrees).
func (w *parWorker) splitOrdered(alg Algorithm, d int, order []int32) {
	p, e := w.pool, w.e
	e.reserve(d + 2)
	f, next := &e.stack[d], &e.stack[d+1]
	P, X := f.P, f.X
	path := w.leafPath()
	kids := make([]*parTask, 0, len(order))
	for i, v := range order {
		e.child(d, v)
		px := make([]uint64, 2*e.w)
		copy(px, next.P)
		copy(px[e.w:], next.X)
		kids = append(kids, &parTask{
			path: append(path[:len(path):len(path)], uint32(i)),
			alg:  alg,
			R:    append(e.R[:len(e.R):len(e.R)], v),
			px:   px,
		})
		P[v>>6] &^= 1 << (uint(v) & 63)
		X[v>>6] |= 1 << (uint(v) & 63)
	}
	p.pending.Add(int64(len(kids)))
	dq := &p.deques[w.id]
	for i := len(kids) - 1; i >= 0; i-- {
		dq.push(kids[i])
	}
	// The donated subtrees sit between this worker's past and future
	// emissions in DFS order, so the current run ends here.
	w.newRun = true
	if p.hungry.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// record is the worker enumerator's emit: it appends the clique to the
// worker's family and to its current run, opening a new run keyed by this
// leaf's path when the last one was closed by a task switch or a donation.
func (w *parWorker) record(c []int32) {
	if w.newRun {
		w.runs = append(w.runs, cliqueRun{key: w.leafPath(), Window: family.Window{F: &w.out, First: w.out.Len()}})
		w.newRun = false
	}
	w.out.Append(c)
	w.runs[len(w.runs)-1].Count++
}

// sanity: the grid constant and the structure enum must agree, or Index
// would alias telemetry cells.
var _ = func() struct{} {
	if int(BitSetsParallel)*4+int(XPivot) != NumCombos-1 {
		panic(fmt.Sprintf("mcealg: NumCombos %d does not cover the structure grid", NumCombos))
	}
	return struct{}{}
}()
