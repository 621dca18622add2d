// Package decomp implements the paper's two-level network decomposition:
// CUT (Algorithm 2) separates feasible from hub nodes, BLOCKS (Algorithm 3)
// greedily partitions the feasible nodes into dense, bounded-size blocks with
// kernel/border/visited structure, and BLOCK-ANALYSIS (Algorithm 4)
// enumerates the maximal cliques owned by one block.
//
// A node is feasible for block size m when its closed neighbourhood
// {n} ∪ N(n) has at most m nodes — i.e. deg(n) < m — so a block can hold the
// node together with its whole neighbourhood; otherwise it is a hub
// (paper §2). Every feasible node becomes the kernel of exactly one block;
// hub nodes only ever appear as border or visited nodes and are handled by
// the recursion one level up (package core).
package decomp

import (
	"math/rand"
	"slices"

	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

// Cut performs the first-level decomposition: it splits the nodes of g into
// feasible nodes (degree < m) and hub nodes (degree ≥ m), both ascending.
func Cut(g *graph.Graph, m int) (feasible, hubs []int32) {
	n := int32(g.N())
	nHubs := 0
	for v := int32(0); v < n; v++ {
		if !IsFeasible(g, v, m) {
			nHubs++
		}
	}
	feasible = make([]int32, 0, int(n)-nHubs)
	hubs = make([]int32, 0, nHubs)
	for v := int32(0); v < n; v++ {
		if IsFeasible(g, v, m) {
			feasible = append(feasible, v)
		} else {
			hubs = append(hubs, v)
		}
	}
	return feasible, hubs
}

// IsFeasible reports whether v's closed neighbourhood fits in a block of
// size m (the paper's isfeasible on a single node).
func IsFeasible(g *graph.Graph, v int32, m int) bool {
	return g.Degree(v) < m
}

// Block is one unit of the second-level decomposition. Node identifiers are
// local to the block's induced subgraph; Orig maps them back to g.
//
// A block exists in two states. GrowSeq plans it: Orig, Kernel, Border and
// Visited say which nodes it holds and in which role, and Graph is nil. The
// induced subgraph is a pure function of (g, Orig), so it is filled in
// wherever the block is consumed — by Induce for a caller that keeps it, by
// a Materialiser on the goroutine that analyses the block (a local
// executor's worker, or a cluster worker's connection, which is sent the
// membership) and then lets the subgraph go.
type Block struct {
	// Graph is the subgraph induced by Kernel ∪ Border ∪ Visited,
	// with local IDs 0..Graph.N()-1; nil while the block is only planned.
	Graph *graph.Graph
	// Orig maps local IDs to the original graph's IDs, ascending.
	Orig []int32
	// Kernel lists the local IDs of the block's kernel nodes: feasible
	// nodes owned by this block (each feasible node is kernel in exactly
	// one block).
	Kernel []int32
	// Border lists the local IDs of neighbours of kernels that are not
	// kernels of any earlier block (they may be hubs or later kernels).
	Border []int32
	// Visited lists the local IDs of neighbours that were kernels of an
	// earlier block; cliques containing them are already enumerated there.
	Visited []int32
}

// Order selects how Blocks picks the seed of each new block.
type Order uint8

const (
	// OrderDegreeAsc seeds blocks from the lowest-degree unassigned node,
	// so dense regions coalesce around their periphery (the default; the
	// increasing-degree heuristic of [10], §7).
	OrderDegreeAsc Order = iota
	// OrderID seeds blocks in plain node-ID order.
	OrderID
	// OrderRandom seeds blocks in a seeded pseudo-random order — the
	// hash-partitioning strawman the paper calls "the worst possible
	// partitioning for scale-free networks" (§7, [15]); kept as an
	// ablation baseline.
	OrderRandom
)

// Options tunes the greedy block construction.
type Options struct {
	// MinAdjacency stops block growth when the best remaining border
	// candidate has fewer than this many edges into the current kernels
	// (paper §3.2: candidates below a threshold start a new block so blocks
	// stay internally dense). Values < 1 mean 1.
	MinAdjacency int
	// Order selects the block seeding order; see the Order constants.
	Order Order
	// Seed drives OrderRandom.
	Seed int64
}

// Blocks performs the second-level decomposition (Algorithm 3) and induces
// every block's subgraph: Grow, then Induce over each block from one
// Inducer. It is the collect-all form — replays, experiments and tests that
// want a whole level resident call it; the engine publishes GrowSeq's
// blocks to its executor as they are planned (Plan) and lets the workers
// materialise.
func Blocks(g *graph.Graph, feasible []int32, m int, opts Options) []Block {
	blocks := Grow(g, feasible, m, opts)
	inducer := graph.NewInducer(g)
	for i := range blocks {
		Induce(&blocks[i], inducer)
	}
	return blocks
}

// Induce fills b.Graph with an exact-size induced subgraph the block owns.
// inducer must be over the graph b was grown from.
func Induce(b *Block, inducer *graph.Inducer) {
	sub, _ := inducer.Scratch(b.Orig)
	b.Graph = sub.Clone()
}

// Grow is GrowSeq collected into a slice: the whole level's plan at once,
// for Blocks, replays and tests.
func Grow(g *graph.Graph, feasible []int32, m int, opts Options) []Block {
	var blocks []Block
	GrowSeq(g, feasible, m, opts)(func(b Block) bool {
		blocks = append(blocks, b)
		return true
	})
	return blocks
}

// GrowSeq is the serial half of Algorithm 3, the part whose order the paper
// fixes: it partitions the feasible nodes into kernel sets of blocks of at
// most m nodes, growing each block greedily along dense adjacency, and
// yields each block as membership only (Graph nil; see Block) the moment it
// is planned, in plan order. It stops when yield returns false. The input
// graph is not modified; feasible must contain only nodes with degree < m.
//
// Each node's role is one byte of state, and the next kernel comes from a
// bucket queue on the candidates' edge counts into the kernel set, so a
// block costs Σ deg over its kernels (times a heap's log) plus a sort of its
// cover, with no term in n and no rescan of the cover per kernel.
func GrowSeq(g *graph.Graph, feasible []int32, m int, opts Options) func(yield func(Block) bool) {
	return func(yield func(Block) bool) {
		minAdj := int32(max(opts.MinAdjacency, 1))
		n := g.N()

		order := seedOrder(g, feasible, opts)

		state := make([]uint8, n)
		for _, v := range feasible {
			state[v] = nodeFeasible
		}

		// Per-block state, shared by every block and reset after each over the
		// nodes that block touched.
		adjCount := make([]int32, n) // edges from candidate to current kernels
		var kernels []int32
		var touched []int32 // N(K): the nodes with adjCount > 0
		var queue bucketQueue

		coverSize := 0
		cover := func(v int32) {
			if state[v]&nodeInCover == 0 {
				state[v] |= nodeInCover
				coverSize++
			}
		}
		addKernel := func(v int32) {
			state[v] |= nodeAssigned | nodeInKernel
			kernels = append(kernels, v)
			cover(v)
			for _, u := range g.Neighbors(v) {
				cover(u)
				if adjCount[u] == 0 {
					touched = append(touched, u)
				}
				adjCount[u]++
				// A candidate below the threshold cannot be picked at its
				// current count: it is queued once it reaches minAdj.
				if state[u]&(nodeFeasible|nodeAssigned) == nodeFeasible && adjCount[u] >= minAdj {
					queue.push(u, adjCount[u])
				}
			}
		}

		// growthOf returns |{v} ∪ N(v) \ cover|, the cover increase of
		// adopting v as a kernel (the incremental isfeasible test).
		growthOf := func(v int32) int {
			grow := 0
			if state[v]&nodeInCover == 0 {
				grow++
			}
			for _, u := range g.Neighbors(v) {
				if state[u]&nodeInCover == 0 {
					grow++
				}
			}
			return grow
		}

		for _, start := range order {
			if state[start]&nodeAssigned != 0 {
				continue
			}
			kernels, touched, coverSize = kernels[:0], touched[:0], 0

			// Seed the block. A feasible start always fits: |{v} ∪ N(v)| ≤ m.
			addKernel(start)

			// Grow greedily: among unassigned feasible border nodes, take the
			// one with the most edges into the kernel set (the lowest ID among
			// equals), while the block stays within m nodes and the candidate
			// has at least minAdj of them.
			for {
				best := queue.best(state)
				if best < 0 || coverSize+growthOf(best) > m {
					break
				}
				addKernel(best)
			}
			queue.reset()

			// touched becomes the cover: N(K) plus the kernels that no other
			// kernel neighbours.
			for _, k := range kernels {
				if adjCount[k] == 0 {
					touched = append(touched, k)
				}
			}
			slices.Sort(touched) // ascending: kernels, borders and visited mixed
			if !yield(plan(touched, len(kernels), state)) {
				return
			}

			for _, v := range touched {
				adjCount[v] = 0
				state[v] &^= nodeInCover | nodeInKernel
			}
		}
	}
}

// GrowSeq's state byte per node.
const (
	nodeFeasible uint8 = 1 << iota // degree < m: it will be a kernel somewhere
	nodeAssigned                   // a kernel of this block or of an earlier one
	nodeInKernel                   // a kernel of the block being grown
	nodeInCover                    // in K ∪ N(K) of the block being grown
)

// bucketQueue holds the candidates of the block being grown by their edge
// count into its kernels: bucket c is a min-heap of the node IDs whose count
// reached c. Counts only rise while a block grows, so a node that moved up
// leaves a stale entry in each lower bucket. best scans the buckets from the
// top down and takes the first unassigned node it meets, so by the time it
// reaches a stale entry that node was already taken from a higher bucket —
// a kernel now — and the entry is dropped. The buckets keep their memory
// from block to block.
type bucketQueue struct {
	buckets [][]int32
	top     int32 // no valid entry lies above it
	hi      int32 // the highest bucket used by this block
}

// push queues v at count c.
func (q *bucketQueue) push(v, c int32) {
	for int(c) >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	h := append(q.buckets[c], v)
	for i := len(h) - 1; i > 0; { // sift up
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	q.buckets[c] = h
	q.top, q.hi = max(q.top, c), max(q.hi, c)
}

// best returns the unassigned node with the highest count and, among those,
// the lowest ID — or -1 when no candidate is queued. Only feasible nodes are
// queued, and a block ends at the first best it does not adopt.
func (q *bucketQueue) best(state []uint8) int32 {
	for ; q.top > 0; q.top-- {
		h := q.buckets[q.top]
		for len(h) > 0 {
			if v := h[0]; state[v]&nodeAssigned == 0 {
				q.buckets[q.top] = h
				return v
			}
			h = popMin(h)
		}
		q.buckets[q.top] = h
	}
	return -1
}

// reset empties every bucket the block used.
func (q *bucketQueue) reset() {
	for c := int32(1); c <= q.hi; c++ {
		q.buckets[c] = q.buckets[c][:0]
	}
	q.top, q.hi = 0, 0
}

// popMin removes the least element of the min-heap h.
func popMin(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; { // sift down
		least, l := i, 2*i+1
		if l < last && h[l] < h[least] {
			least = l
		}
		if r := l + 1; r < last && h[r] < h[least] {
			least = r
		}
		if least == i {
			return h
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// seedOrder arranges the feasible nodes according to opts.Order.
func seedOrder(g *graph.Graph, feasible []int32, opts Options) []int32 {
	order := make([]int32, len(feasible))
	copy(order, feasible)
	switch opts.Order {
	case OrderID:
		slices.Sort(order)
	case OrderRandom:
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	default: // OrderDegreeAsc
		return byDegreeThenID(g, order)
	}
	return order
}

// byDegreeThenID returns nodes ordered by (degree, ID), in O(len(nodes) +
// max degree): a stable counting sort on degree over the ID-ascending list.
// CUT hands the nodes over ascending already, so the ID sort is a scan.
func byDegreeThenID(g *graph.Graph, nodes []int32) []int32 {
	if !slices.IsSorted(nodes) {
		slices.Sort(nodes)
	}
	maxDeg := 0
	for _, v := range nodes {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	// next[d] becomes the output position of the next node of degree d.
	next := make([]int32, maxDeg+2)
	for _, v := range nodes {
		next[g.Degree(v)+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	out := make([]int32, len(nodes))
	for _, v := range nodes {
		d := g.Degree(v)
		out[next[d]] = v
		next[d]++
	}
	return out
}

// plan records one block over its cover nodes (ascending), nKernels of
// which are its kernels: Orig is the cover, and each node's position in it
// goes to the class list of its role, read from GrowSeq's state byte. A
// neighbour is Visited when it was a kernel of an earlier block, i.e.
// assigned but not in the current kernel set. The four lists share one
// exact-size allocation, each capped at its own length; a class nobody is
// in stays nil.
func plan(nodes []int32, nKernels int, state []uint8) Block {
	nVisited := 0
	for _, v := range nodes {
		if state[v]&(nodeAssigned|nodeInKernel) == nodeAssigned {
			nVisited++
		}
	}
	n, nBorder := len(nodes), len(nodes)-nKernels-nVisited
	buf := make([]int32, 2*n)
	copy(buf, nodes)
	blk := Block{Orig: buf[:n:n], Kernel: buf[n : n : n+nKernels]}
	if at := n + nKernels; nBorder > 0 {
		blk.Border = buf[at : at : at+nBorder]
	}
	if at := 2*n - nVisited; nVisited > 0 {
		blk.Visited = buf[at : at : 2*n]
	}
	for local, global := range nodes {
		switch state[global] & (nodeAssigned | nodeInKernel) {
		case nodeAssigned | nodeInKernel:
			blk.Kernel = append(blk.Kernel, int32(local))
		case nodeAssigned:
			blk.Visited = append(blk.Visited, int32(local))
		default:
			blk.Border = append(blk.Border, int32(local))
		}
	}
	return blk
}

// Materialiser is the worker-side half of Algorithm 3: the scratch one
// goroutine turns planned blocks into analysable ones with. The subgraph it
// induces lives in its own buffers until the next call, the shared plan is
// never written — so a hedged or retried attempt at the same block
// materialises again, into its own goroutine's scratch — and Features is the
// same goroutine's measuring scratch for the combo selector. Once warm, a
// block is materialised and measured without allocating.
type Materialiser struct {
	g       *graph.Graph
	inducer *graph.Inducer // built on the first planned block
	blk     Block
	// Features is the scratch the goroutine's selector measures with.
	Features kcore.Scratch
}

// NewMaterialiser returns a Materialiser for blocks grown from g. g may be
// nil when every block it will see is already induced.
func NewMaterialiser(g *graph.Graph) *Materialiser {
	return &Materialiser{g: g}
}

// Materialise returns b with its induced subgraph: b itself when it already
// has one, otherwise a copy whose Graph is valid until the next call.
//
//mce:hotpath per-block induce on the goroutine that consumes the block
func (m *Materialiser) Materialise(b *Block) *Block {
	if b.Graph != nil {
		return b
	}
	if m.inducer == nil {
		m.inducer = graph.NewInducer(m.g)
	}
	m.blk = *b
	m.blk.Graph, _ = m.inducer.Scratch(b.Orig)
	return &m.blk
}

// AnalyzeBlock implements BLOCK-ANALYSIS (Algorithm 4): it emits every
// maximal clique of g that contains at least one kernel node of b and no
// visited node, with node identifiers translated back to g's IDs. Cliques
// are emitted exactly once per block; across blocks, the visited mechanism
// guarantees global uniqueness. The slice passed to emit is reused.
//
// AnalyzeBlock is one-shot: each call builds and drops an Analyzer. A
// caller with many blocks keeps one Analyzer per goroutine instead.
func AnalyzeBlock(b *Block, combo mcealg.Combo, emit func(clique []int32)) error {
	return new(Analyzer).Analyze(b, combo, emit, mcealg.Par{})
}

// Analyzer runs BLOCK-ANALYSIS over many blocks from one set of scratch
// memory: the MCE runner (adjacency rows, recursion frames, the buffer a
// clique is translated in) and the P, V̄, P ∩ N_k and V̄ ∩ N_k windows of
// Algorithm 4 are sized by the largest block seen and reused, so a warm
// Analyzer analyses a block without allocating. The zero value is ready.
// An Analyzer serves one goroutine at a time, and one whose Analyze
// panicked must be dropped: its scratch is mid-recursion.
type Analyzer struct {
	runner  mcealg.Runner
	windows []uint64 // P | V̄ | P ∩ N_k | V̄ ∩ N_k
	kernel  [1]int32
}

// Analyze is AnalyzeBlock on the analyzer's scratch. A BitSetsParallel
// combo (or par.Workers > 1) runs each kernel subproblem on mcealg's
// work-stealing pool; emission order, and therefore the downstream
// checkpoint digests and Lemma-1 filter input, is identical to the
// sequential path — the pool merges per-worker cliques back into
// depth-first order before emitting (see mcealg/parallel.go).
func (a *Analyzer) Analyze(b *Block, combo mcealg.Combo, emit func(clique []int32), par mcealg.Par) error {
	return a.analyze(b, combo, mcealg.Sink{Orig: b.Orig, Emit: emit}, par)
}

// AnalyzeInto is Analyze appending the block's cliques to out, each
// translated to the original graph's IDs as it is copied into the arena.
func (a *Analyzer) AnalyzeInto(b *Block, combo mcealg.Combo, out *family.Family, par mcealg.Par) error {
	return a.analyze(b, combo, mcealg.Sink{Out: out, Orig: b.Orig}, par)
}

// Counts returns the MCE recursion-node and pivot-selection counts of the
// block analysed last, zero when its combo was refused.
func (a *Analyzer) Counts() (nodes, pivots int64) { return a.runner.Counts() }

// analyze runs Algorithm 4 on b into s. The runner emits local IDs
// ascending and Orig is ascending, so the cliques s receives, translated
// through Orig, are ascending too.
//
//mce:hotpath per-block Algorithm 4 kernel loop
func (a *Analyzer) analyze(b *Block, combo mcealg.Combo, s mcealg.Sink, par mcealg.Par) error {
	if err := a.runner.Reset(b.Graph, combo, par); err != nil {
		return err
	}
	w := (b.Graph.N() + 63) / 64
	if cap(a.windows) < 4*w {
		a.windows = make([]uint64, 4*w)
	}
	a.windows = a.windows[:4*w]
	clear(a.windows)
	P, vbar, Pk, Xk := a.windows[:w], a.windows[w:2*w], a.windows[2*w:3*w], a.windows[3*w:]
	// P starts as K ∪ H; V̄ starts as the visited set (line 2–3).
	for _, v := range b.Kernel {
		P[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, v := range b.Border {
		P[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, v := range b.Visited {
		vbar[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, k := range b.Kernel {
		// N_k ← N(k); run MCE(k, P ∩ N_k, V̄ ∩ N_k) (lines 5–6).
		clear(Pk)
		clear(Xk)
		for _, u := range b.Graph.Neighbors(k) {
			bit := uint64(1) << (uint(u) & 63)
			Pk[u>>6] |= P[u>>6] & bit
			Xk[u>>6] |= vbar[u>>6] & bit
		}
		a.kernel[0] = k
		a.runner.SubproblemTo(a.kernel[:], Pk, Xk, s)
		// k is done: all cliques through it are found (lines 7–8).
		P[k>>6] &^= 1 << (uint(k) & 63)
		vbar[k>>6] |= 1 << (uint(k) & 63)
	}
	return nil
}
