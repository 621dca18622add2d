package mcealg

import (
	"math/bits"
	"slices"

	"mce/internal/graph"
)

// window is the type of one set of the recursion: ⌈n/64⌉ words, bit v of
// word v/64 standing for node v. The arrays are the packed store's blocks
// of at most 256 nodes, whose width Go's stenciling makes a compile-time
// constant — one instantiation of the recursion per array shape, with no
// window slicing and no bounds checks on its word loops. The slice serves
// every other case from the same recursion: Lists, wider blocks, and the
// work-stealing mode; its set operations run as plain []uint64 loops (see
// fixed). Runner.Reset picks the instantiation by the graph's width.
type window interface {
	[]uint64 | [1]uint64 | [2]uint64 | [3]uint64 | [4]uint64
}

// maxFixedWords is the widest array window.
const maxFixedWords = 4

// frame is one depth of the recursion: the candidates its node branches on,
// and its P and X.
type frame[W window] struct{ cand, P, X W }

// enumerator is the whole state of the MCE recursion over one graph of n
// nodes, every set a window W of w words. Depth d of the recursion owns
// frame d of one stack; a node fills its child's P and X in frame d+1, so
// the recursion allocates nothing once the stack has reached the depth of
// the tree. R is the clique under construction, one node per frame below
// the current one.
//
// The neighbourhood operations have two forms. Matrix, BitSets and
// BitSetsParallel share one packed store, rows (row v being N(v)), and
// intersect word by word in O(w); Lists walks the CSR row of v against the
// windows in O(deg v). The recursion tree is a function of (algorithm,
// graph, R, P, X) only: the pivot rules scan their windows in ascending bit
// order with a strict > tie-break and candidates are taken in ascending
// order, whichever form and whichever window type answers.
//
// All of it is reusable: reset re-targets the enumerator at another graph
// and keeps the memory. nodes and pivots count recursion-tree expansions
// and pivot selections; they are plain fields updated single-threaded, so
// the recursion pays one register increment and telemetry merges them per
// block after the fact.
type enumerator[W window] struct {
	g      *graph.Graph
	w      int
	packed bool
	rows   []W
	stack  []frame[W]
	R      []int32
	buf    []int32 // the clique an Emit sink is handed
	rset   W       // report's scratch: zero between reports
	sink   Sink
	// rowWords and stackWords back the rows and frames of the slice
	// window; an array window is its own storage and leaves them nil.
	rowWords, stackWords []uint64
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
func (e *enumerator[W]) reset(g *graph.Graph, packed bool) {
	n := g.N()
	e.target(g, (n+63)/64, packed)
	e.nodes, e.pivots = 0, 0
	e.rows = e.rows[:0]
	if !packed {
		return
	}
	if cap(e.rows) < n {
		e.rows = make([]W, n)
	}
	e.rows = e.rows[:n]
	if rows, ok := any(e.rows).([][]uint64); ok {
		if cap(e.rowWords) < n*e.w {
			e.rowWords = make([]uint64, n*e.w)
		}
		words := e.rowWords[:n*e.w]
		clear(words)
		for v := range rows {
			rows[v] = words[v*e.w : (v+1)*e.w : (v+1)*e.w]
		}
	} else {
		clear(e.rows)
	}
	for v := 0; v < n; v++ {
		row := &e.rows[v]
		for _, u := range g.Neighbors(int32(v)) {
			(*row)[u>>6] |= 1 << (uint(u) & 63)
		}
	}
}

// target sets the graph and its width w, and re-cuts the slice window's
// frames and report scratch when w changed.
//
//mce:coldpath per-block re-targeting
func (e *enumerator[W]) target(g *graph.Graph, w int, packed bool) {
	changed := w != e.w
	e.g, e.w, e.packed = g, w, packed
	if rset, ok := any(&e.rset).(*[]uint64); ok && changed {
		if cap(*rset) < w {
			*rset = make([]uint64, w)
		}
		*rset = (*rset)[:w]
		if w > 0 {
			e.stack = e.stack[:min(cap(e.stack), len(e.stackWords)/(3*w))]
			e.cutFrames()
		}
	}
}

// reserve makes the stack at least frames deep. Growing moves the stack, so
// a caller re-takes its frame after anything that may recurse.
func (e *enumerator[W]) reserve(frames int) {
	if frames > len(e.stack) {
		e.growStack(frames)
	}
}

//mce:coldpath stack doubling: a warm enumerator never gets here
//go:noinline
func (e *enumerator[W]) growStack(frames int) {
	stack := make([]frame[W], max(frames, 2*len(e.stack)))
	copy(stack, e.stack)
	e.stack = stack
	if _, ok := any(stack).([]frame[[]uint64]); ok {
		words := make([]uint64, 3*e.w*len(stack))
		copy(words, e.stackWords) // the live frames' contents
		e.stackWords = words
		e.cutFrames()
	}
}

// cutFrames points the slice window's frames at consecutive 3·w-word slots
// of stackWords.
func (e *enumerator[W]) cutFrames() {
	frames, ok := any(e.stack).([]frame[[]uint64])
	if !ok {
		return
	}
	w := e.w
	for d := range frames {
		f := e.stackWords[3*w*d : 3*w*(d+1)]
		frames[d] = frame[[]uint64]{cand: f[:w:w], P: f[w : 2*w : 2*w], X: f[2*w:]}
	}
}

// run solves MCE(R, P, X) into s from frame 0, which it loads from the
// caller's windows.
func (e *enumerator[W]) run(alg Algorithm, R []int32, P, X []uint64, s Sink) {
	e.sink = s
	e.solve(alg, R, P, X)
	e.sink = Sink{}
}

// solve is run into the enumerator's current sink.
func (e *enumerator[W]) solve(alg Algorithm, R []int32, P, X []uint64) {
	e.reserve(1)
	f := &e.stack[0]
	for i := 0; i < len(f.P); i++ {
		f.P[i], f.X[i] = P[i], X[i]
	}
	e.R = append(e.R[:0], R...)
	if alg == Eppstein {
		e.eppstein()
	} else {
		e.bk(alg, 0)
	}
}

// report hands the sink the members of R, ascending: written straight into
// the sink's family, or into buf for its Emit. R itself is the shared
// recursion stack and must not be reordered: ancestors still rely on their
// prefix.
func (e *enumerator[W]) report() {
	clique := e.sortR(e.sink.room(len(e.R), e.buf), e.sink.Orig)
	e.buf = e.sink.deliver(clique, e.buf)
}

// sortR appends the members of R to dst, ascending, each translated
// through orig when orig is set; orig is ascending, so the order holds. A
// clique at least as long as the window is sorted by one scan of the
// window, a shorter one by sorting a copy.
func (e *enumerator[W]) sortR(dst, orig []int32) []int32 {
	if len(e.rset) > len(e.R) {
		dst = append(dst, e.R...)
		slices.Sort(dst) // not sort.Slice: that boxes the slice per emitted clique
		if orig != nil {
			for i, v := range dst {
				dst[i] = orig[v]
			}
		}
		return dst
	}
	for _, v := range e.R {
		e.rset[v>>6] |= 1 << (uint(v) & 63)
	}
	for i := 0; i < len(e.rset); i++ {
		for word := e.rset[i]; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			if orig != nil {
				v = orig[v]
			}
			dst = append(dst, v)
		}
		e.rset[i] = 0
	}
	return dst
}

// bk is the pivoted Bron–Kerbosch recursion on frame d — the one body
// behind BKPivot, Tomita, XPivot and Eppstein's inner levels, sequential
// and work-stealing alike; the algorithms differ only in pivot choice.
//
//mce:hotpath the MCE recursion
func (e *enumerator[W]) bk(alg Algorithm, d int) {
	e.nodes++
	f := &e.stack[d]
	if empty(&f.P) {
		if empty(&f.X) {
			e.report()
		}
		return
	}
	u := e.pivot(alg, &f.P, &f.X)
	e.subtractNeighbors(&f.cand, u, &f.P) // cand = P \ N(u)
	if e.par != nil && e.par.split(alg, d) {
		return
	}
	e.reserve(d + 2)
	w := len(f.cand) // a constant for an array window
	for i := 0; i < w; i++ {
		// cand is not written below this node, so each word is read once
		// — from the live stack, which a deeper reserve may have moved.
		for word := e.stack[d].cand[i]; word != 0; word &= word - 1 {
			e.branch(alg, d, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
}

// branch expands the child of frame d through v — P' = P ∩ N(v) and
// X' = X ∩ N(v) go to frame d+1, which must be reserved — and then moves v
// from P to X.
func (e *enumerator[W]) branch(alg Algorithm, d int, v int32) {
	e.child(d, v)
	e.R = append(e.R, v)
	e.bk(alg, d+1)
	e.R = e.R[:len(e.R)-1]
	f := &e.stack[d]
	f.P[v>>6] &^= 1 << (uint(v) & 63)
	f.X[v>>6] |= 1 << (uint(v) & 63)
}

// child fills P and X of frame d+1 with P ∩ N(v) and X ∩ N(v) of frame d:
// one pass over the packed row, or one walk of the CSR row.
func (e *enumerator[W]) child(d int, v int32) {
	f, c := &e.stack[d], &e.stack[d+1]
	switch {
	case fixed[W]():
		row := &e.rows[v]
		for i := 0; i < len(*row); i++ {
			c.P[i] = (*row)[i] & f.P[i]
			c.X[i] = (*row)[i] & f.X[i]
		}
	case e.packed:
		andWords(words(&e.rows[v]), words(&f.P), words(&f.X), words(&c.P), words(&c.X))
	default:
		listChild(e.g.Neighbors(v), words(&f.P), words(&f.X), words(&c.P), words(&c.X))
	}
}

// pivot chooses the branching pivot according to the algorithm:
//
//   - Tomita: the node of P ∪ X maximising |N(u) ∩ P| [34];
//   - BKPivot: the node of P with the highest degree [6];
//   - XPivot: like Tomita but restricted to the visited set X when X is
//     non-empty (the paper's variant), falling back to P otherwise.
func (e *enumerator[W]) pivot(alg Algorithm, P, X *W) int32 {
	e.pivots++
	best, bestCnt := int32(-1), -1
	switch alg {
	case BKPivot:
		for i := 0; i < len(*P); i++ {
			for word := (*P)[i]; word != 0; word &= word - 1 {
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
// P than bestCnt, the count held by best. It is intersectCount with the
// window's and the store's branches taken once per scan rather than once
// per node, so that the count inlines.
func (e *enumerator[W]) maxCover(S, P *W, best int32, bestCnt int) (int32, int) {
	var p []uint64
	if !fixed[W]() {
		p = words(P)
	}
	for i := 0; i < len(*S); i++ {
		for word := (*S)[i]; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			var c int
			switch {
			case fixed[W]():
				c = andCount(&e.rows[v], P)
			case e.packed:
				c = andCountWords(words(&e.rows[v]), p)
			default:
				c = listCount(e.g.Neighbors(v), p)
			}
			if c > bestCnt {
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
func (e *enumerator[W]) eppstein() {
	e.nodes++
	if f := &e.stack[0]; empty(&f.P) {
		if empty(&f.X) {
			e.report()
		}
		return
	}
	e.reserve(2)
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
func (e *enumerator[W]) degeneracyOrder() []int32 {
	f0, f1 := &e.stack[0], &e.stack[1]
	P, scratch, alive := f0.P, &f0.cand, &f1.cand
	for i := 0; i < len(P); i++ {
		(*alive)[i] = P[i]
	}
	if len(e.deg) < e.g.N() {
		e.deg = make([]int32, e.g.N())
	}
	deg := e.deg
	members, maxDeg := 0, 0
	for i := 0; i < len(P); i++ {
		for word := P[i]; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			deg[v] = int32(e.intersectCount(v, &P))
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
	for i := 0; i < len(P); i++ {
		for word := P[i]; word != 0; word &= word - 1 {
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
		if (*alive)[v>>6]&(1<<(uint(v)&63)) == 0 || int(deg[v]) != cur {
			continue // stale bucket entry
		}
		order = append(order, v)
		(*alive)[v>>6] &^= 1 << (uint(v) & 63)
		e.intersectNeighbors(scratch, v, alive)
		for i := 0; i < len(*scratch); i++ {
			for word := (*scratch)[i]; word != 0; word &= word - 1 {
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

// The set operations against N(v) take one of three forms. An array
// window is the packed store's — Reset gives it to no other — and its
// loops are generic, with the length a constant of the instantiation. The
// slice window's loops are written against []uint64, packed or CSR: a
// generic loop writing through a slice held in a frame reloads and
// re-checks every window after every store, which on wide blocks cost
// 20–80 % per node against the same loop on slices in registers.

// fixed reports whether W is an array window. It is a constant of each
// instantiation, so a branch on it costs nothing and its dead side is
// dropped.
func fixed[W window]() bool {
	var w W
	return len(w) > 0
}

// words returns the slice window that s is; only the slice window reaches
// the []uint64 forms below.
func words[W window](s *W) []uint64 { return *any(s).(*[]uint64) }

// intersectNeighbors stores N(v) ∩ s into dst. It serves the degeneracy
// order, once per subproblem, so its packed loop is the generic one.
func (e *enumerator[W]) intersectNeighbors(dst *W, v int32, s *W) {
	if !fixed[W]() && !e.packed {
		listIntersect(e.g.Neighbors(v), words(dst), words(s))
		return
	}
	row := &e.rows[v]
	for i := 0; i < len(*row); i++ {
		(*dst)[i] = (*row)[i] & (*s)[i]
	}
}

// subtractNeighbors stores s \ N(v) into dst.
func (e *enumerator[W]) subtractNeighbors(dst *W, v int32, s *W) {
	switch {
	case fixed[W]():
		row := &e.rows[v]
		for i := 0; i < len(*row); i++ {
			(*dst)[i] = (*s)[i] &^ (*row)[i]
		}
	case e.packed:
		andNotWords(words(dst), words(s), words(&e.rows[v]))
	default:
		listSubtract(e.g.Neighbors(v), words(dst), words(s))
	}
}

// intersectCount returns |N(v) ∩ s|. It serves the degeneracy order; the
// pivot scans count in maxCover.
func (e *enumerator[W]) intersectCount(v int32, s *W) int {
	if !fixed[W]() && !e.packed {
		return listCount(e.g.Neighbors(v), words(s))
	}
	return andCount(&e.rows[v], s)
}

// andCount returns |a ∩ b|.
func andCount[W window](a, b *W) int {
	c := 0
	for i := 0; i < len(*a); i++ {
		c += bits.OnesCount64((*a)[i] & (*b)[i])
	}
	return c
}

// andWords stores r ∩ a into x and r ∩ b into y.
func andWords(r, a, b, x, y []uint64) {
	for i, w := range r {
		x[i] = w & a[i]
		y[i] = w & b[i]
	}
}

// andNotWords stores s \ r into dst.
func andNotWords(dst, s, r []uint64) {
	for i, w := range r {
		dst[i] = s[i] &^ w
	}
}

// andCountWords returns |a ∩ b|.
func andCountWords(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// listChild stores P ∩ N and X ∩ N, N a CSR row, into childP and childX.
func listChild(nbrs []int32, P, X, childP, childX []uint64) {
	clear(childP)
	clear(childX)
	for _, u := range nbrs {
		i, bit := int(u>>6), uint64(1)<<(uint(u)&63)
		if P[i]&bit != 0 {
			childP[i] |= bit
		}
		if X[i]&bit != 0 {
			childX[i] |= bit
		}
	}
}

// listIntersect stores N ∩ s into dst.
func listIntersect(nbrs []int32, dst, s []uint64) {
	clear(dst)
	for _, u := range nbrs {
		if bit := uint64(1) << (uint(u) & 63); s[u>>6]&bit != 0 {
			dst[u>>6] |= bit
		}
	}
}

// listSubtract stores s \ N into dst.
func listSubtract(nbrs []int32, dst, s []uint64) {
	copy(dst, s)
	for _, u := range nbrs {
		dst[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// listCount returns |N ∩ s|.
func listCount(nbrs []int32, s []uint64) int {
	c := 0
	for _, u := range nbrs {
		c += int(s[u>>6] >> (uint(u) & 63) & 1)
	}
	return c
}

// empty reports whether the window s holds no node.
func empty[W window](s *W) bool {
	if !fixed[W]() {
		for _, w := range words(s) {
			if w != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(*s); i++ {
		if (*s)[i] != 0 {
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
