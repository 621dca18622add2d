package mcealg

import (
	"math/bits"
	"slices"

	"mce/internal/graph"
)

// enumerator is the whole state of the MCE recursion over one graph of n
// nodes. Every set is a window of w = ⌈n/64⌉ words. Depth d of the
// recursion owns frame d of one flat stack, three windows `cand | P | X`;
// a node fills its child's P and X in frame d+1, so the recursion allocates
// nothing once the stack has reached the depth of the tree. R is the clique
// under construction, one node per frame below the current one.
//
// The neighbourhood operations have two forms. Matrix, BitSets and
// BitSetsParallel share one packed store, rows (n × w words in a single
// slice, row v being N(v)), and intersect word by word in O(w); Lists walks
// the CSR row of v against the windows in O(deg v). The recursion tree is a
// function of (algorithm, graph, R, P, X) only: the pivot rules scan their
// windows in ascending bit order with a strict > tie-break and candidates
// are taken in ascending order, whichever form answers.
//
// All of it is reusable: reset re-targets the enumerator at another graph
// and keeps the memory. nodes and pivots count recursion-tree expansions
// and pivot selections; they are plain fields updated single-threaded, so
// the recursion pays one register increment and telemetry merges them per
// block after the fact.
type enumerator struct {
	g      *graph.Graph
	w      int
	packed bool
	rows   []uint64
	stack  []uint64
	R      []int32
	buf    []int32 // reusable emit buffer
	rset   []uint64
	emit   func([]int32)
	// par is the split hook of the work-stealing mode: the worker this
	// enumerator runs tasks for, nil on the sequential path.
	par *parWorker

	nodes  int64
	pivots int64

	// Eppstein's bucket peeling, indexed by node ID.
	deg     []int32
	buckets [][]int32
	order   []int32
}

// reset points the enumerator at g, building the packed store when the
// structure asks for one.
//
//mce:coldpath per-block adjacency construction into reused memory
func (e *enumerator) reset(g *graph.Graph, packed bool) {
	n := g.N()
	e.g, e.w, e.packed = g, (n+63)/64, packed
	e.nodes, e.pivots = 0, 0
	e.rows = e.rows[:0]
	if !packed {
		return
	}
	if cap(e.rows) < n*e.w {
		e.rows = make([]uint64, n*e.w)
	}
	e.rows = e.rows[:n*e.w]
	clear(e.rows)
	for v := 0; v < n; v++ {
		row := e.rows[v*e.w : (v+1)*e.w]
		for _, u := range g.Neighbors(int32(v)) {
			row[u>>6] |= 1 << (uint(u) & 63)
		}
	}
}

// reserve makes the stack at least words long. Growing moves the stack, so
// a caller re-reads e.stack after anything that may recurse.
func (e *enumerator) reserve(words int) {
	if words > len(e.stack) {
		e.growStack(words)
	}
}

//mce:coldpath stack doubling: a warm enumerator never gets here
//go:noinline
func (e *enumerator) growStack(words int) {
	stack := make([]uint64, max(words, 2*len(e.stack)))
	copy(stack, e.stack)
	e.stack = stack
}

// frame returns the three windows of the frame at word offset base; the
// frame of depth d starts at 3·w·d.
func (e *enumerator) frame(base int) (cand, P, X []uint64) {
	w := e.w
	f := e.stack[base : base+3*w]
	return f[:w], f[w : 2*w], f[2*w:]
}

// run solves MCE(R, P, X) from frame 0, which it loads from the caller's
// windows.
func (e *enumerator) run(alg Algorithm, R []int32, P, X []uint64) {
	e.reserve(3 * e.w)
	_, P0, X0 := e.frame(0)
	copy(P0, P)
	copy(X0, X)
	e.R = append(e.R[:0], R...)
	if alg == Eppstein {
		e.eppstein()
	} else {
		e.bk(alg, 0)
	}
}

// report emits a sorted copy of R. R itself is the shared recursion stack
// and must not be reordered: ancestors still rely on their prefix.
func (e *enumerator) report() {
	if e.w <= len(e.R) {
		if len(e.rset) < e.w {
			e.rset = make([]uint64, e.w)
		}
		rset := e.rset[:e.w]
		for _, v := range e.R {
			rset[v>>6] |= 1 << (uint(v) & 63)
		}
		e.buf = e.buf[:0]
		for i, word := range rset {
			for ; word != 0; word &= word - 1 {
				e.buf = append(e.buf, int32(i<<6+bits.TrailingZeros64(word)))
			}
			rset[i] = 0
		}
		e.emit(e.buf)
		return
	}
	e.buf = append(e.buf[:0], e.R...)
	slices.Sort(e.buf) // not sort.Slice: that boxes the slice per emitted clique
	e.emit(e.buf)
}

// bk is the pivoted Bron–Kerbosch recursion on the frame at base — the one
// body behind BKPivot, Tomita, XPivot and Eppstein's inner levels,
// sequential and work-stealing alike; the algorithms differ only in pivot
// choice.
//
//mce:hotpath the MCE recursion
func (e *enumerator) bk(alg Algorithm, base int) {
	e.nodes++
	cand, P, X := e.frame(base)
	if empty(P) {
		if empty(X) {
			e.report()
		}
		return
	}
	u := e.pivot(alg, P, X)
	e.subtractNeighbors(cand, u, P) // cand = P \ N(u)
	if e.par != nil && e.par.split(alg, base, cand) {
		return
	}
	e.reserve(base + 6*e.w)
	for i := 0; i < e.w; i++ {
		// cand is not written below this node, so each word is read once
		// — from the live stack, which a deeper reserve may have moved.
		for word := e.stack[base+i]; word != 0; word &= word - 1 {
			e.branch(alg, base, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
}

// branch expands the child of the frame at base through v — P' = P ∩ N(v)
// and X' = X ∩ N(v) go to the next frame, which must be reserved — and then
// moves v from P to X.
func (e *enumerator) branch(alg Algorithm, base int, v int32) {
	e.child(base, v)
	e.R = append(e.R, v)
	e.bk(alg, base+3*e.w)
	e.R = e.R[:len(e.R)-1]
	_, P, X := e.frame(base)
	P[v>>6] &^= 1 << (uint(v) & 63)
	X[v>>6] |= 1 << (uint(v) & 63)
}

// child fills P and X of the frame after base with P ∩ N(v) and X ∩ N(v)
// of the frame at base: one pass over the packed row, or one walk of the
// CSR row.
func (e *enumerator) child(base int, v int32) {
	w := e.w
	f := e.stack[base+w : base+6*w] // P | X | cand' | P' | X'
	if e.packed {
		for i, r := range e.row(v) {
			f[3*w+i] = r & f[i]
			f[4*w+i] = r & f[w+i]
		}
		return
	}
	clear(f[3*w:])
	for _, u := range e.g.Neighbors(v) {
		i, bit := int(u>>6), uint64(1)<<(uint(u)&63)
		if f[i]&bit != 0 {
			f[3*w+i] |= bit
		}
		if f[w+i]&bit != 0 {
			f[4*w+i] |= bit
		}
	}
}

// pivot chooses the branching pivot according to the algorithm:
//
//   - Tomita: the node of P ∪ X maximising |N(u) ∩ P| [34];
//   - BKPivot: the node of P with the highest degree [6];
//   - XPivot: like Tomita but restricted to the visited set X when X is
//     non-empty (the paper's variant), falling back to P otherwise.
func (e *enumerator) pivot(alg Algorithm, P, X []uint64) int32 {
	e.pivots++
	best, bestCnt := int32(-1), -1
	switch alg {
	case BKPivot:
		for i, word := range P {
			for ; word != 0; word &= word - 1 {
				v := int32(i<<6 + bits.TrailingZeros64(word))
				if d := e.g.Degree(v); d > bestCnt {
					best, bestCnt = v, d
				}
			}
		}
	case XPivot:
		if best, _ = e.maxCover(X, P, best, bestCnt); best < 0 {
			best, _ = e.maxCover(P, P, best, bestCnt)
		}
	default: // Tomita
		best, bestCnt = e.maxCover(P, P, best, bestCnt)
		best, _ = e.maxCover(X, P, best, bestCnt)
	}
	return best
}

// maxCover scans S in ascending order for a node covering strictly more of
// P than bestCnt, the count held by best.
func (e *enumerator) maxCover(S, P []uint64, best int32, bestCnt int) (int32, int) {
	for i, word := range S {
		for ; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			if c := e.intersectCount(v, P); c > bestCnt {
				best, bestCnt = v, c
			}
		}
	}
	return best, bestCnt
}

// eppstein runs the Eppstein–Strash outer loop on frame 0: process the
// nodes of P in a degeneracy order of the subgraph induced by P, so each
// top-level call sees a candidate set no larger than the degeneracy;
// recursion uses the Tomita pivot, as in [17].
//
//mce:hotpath degeneracy-ordered MCE outer loop
func (e *enumerator) eppstein() {
	e.nodes++
	_, P, X := e.frame(0)
	if empty(P) {
		if empty(X) {
			e.report()
		}
		return
	}
	e.reserve(6 * e.w)
	order := e.degeneracyOrder()
	if e.par != nil {
		e.par.splitOrdered(Tomita, 0, order)
		return
	}
	for _, v := range order {
		e.branch(Tomita, 0, v)
	}
}

// degeneracyOrder peels minimum-degree nodes of the subgraph induced by the
// members of frame 0's P, using degrees restricted to P. The two spare
// windows it needs are the cand slots of frames 0 and 1, both free until
// the outer loop starts; both frames must be reserved.
func (e *enumerator) degeneracyOrder() []int32 {
	scratch, P, _ := e.frame(0)
	alive, _, _ := e.frame(3 * e.w)
	copy(alive, P)
	if len(e.deg) < e.g.N() {
		e.deg = make([]int32, e.g.N())
	}
	deg := e.deg
	members, maxDeg := 0, 0
	for i, word := range P {
		for ; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			deg[v] = int32(e.intersectCount(v, P))
			maxDeg = max(maxDeg, int(deg[v]))
			members++
		}
	}
	// Bucket peeling over the restricted degrees; a bucket is a stack whose
	// stale entries (node gone, or moved to a lower bucket) are skipped.
	for len(e.buckets) <= maxDeg {
		e.buckets = append(e.buckets, nil)
	}
	buckets := e.buckets[:maxDeg+1]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for i, word := range P {
		for ; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			buckets[deg[v]] = append(buckets[deg[v]], v)
		}
	}
	order := e.order[:0]
	for cur := 0; len(order) < members && cur <= maxDeg; {
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if alive[v>>6]&(1<<(uint(v)&63)) == 0 || int(deg[v]) != cur {
			continue // stale bucket entry
		}
		order = append(order, v)
		alive[v>>6] &^= 1 << (uint(v) & 63)
		e.intersectNeighbors(scratch, v, alive)
		for i, word := range scratch {
			for ; word != 0; word &= word - 1 {
				u := int32(i<<6 + bits.TrailingZeros64(word))
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				cur = min(cur, int(deg[u]))
			}
		}
	}
	e.order = order
	return order
}

// row returns N(v) as a window of the packed store.
func (e *enumerator) row(v int32) []uint64 {
	return e.rows[int(v)*e.w:][:e.w]
}

// intersectNeighbors stores N(v) ∩ s into dst.
func (e *enumerator) intersectNeighbors(dst []uint64, v int32, s []uint64) {
	if e.packed {
		row := e.row(v)
		for i := range dst {
			dst[i] = row[i] & s[i]
		}
		return
	}
	clear(dst)
	for _, u := range e.g.Neighbors(v) {
		if bit := uint64(1) << (uint(u) & 63); s[u>>6]&bit != 0 {
			dst[u>>6] |= bit
		}
	}
}

// subtractNeighbors stores s \ N(v) into dst.
func (e *enumerator) subtractNeighbors(dst []uint64, v int32, s []uint64) {
	if e.packed {
		row := e.row(v)
		for i := range dst {
			dst[i] = s[i] &^ row[i]
		}
		return
	}
	copy(dst, s)
	for _, u := range e.g.Neighbors(v) {
		dst[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// intersectCount returns |N(v) ∩ s|. The CSR walk is a function of its own
// so that this one inlines into the pivot scans.
func (e *enumerator) intersectCount(v int32, s []uint64) int {
	if !e.packed {
		return e.listCount(v, s)
	}
	c := 0
	for i, word := range e.row(v) {
		c += bits.OnesCount64(s[i] & word)
	}
	return c
}

func (e *enumerator) listCount(v int32, s []uint64) int {
	c := 0
	for _, u := range e.g.Neighbors(v) {
		c += int(s[u>>6] >> (uint(u) & 63) & 1)
	}
	return c
}

func empty(s []uint64) bool {
	for _, word := range s {
		if word != 0 {
			return false
		}
	}
	return true
}

func count(s []uint64) int {
	c := 0
	for _, word := range s {
		c += bits.OnesCount64(word)
	}
	return c
}
