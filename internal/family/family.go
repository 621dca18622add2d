// Package family holds a clique family flat: the members of every clique
// back to back in an arena of []int32 chunks, and an index of where each
// clique ends. It is how cliques travel on the enumerate leg — from the
// kernel's emit on a worker goroutine to the single place Result.Cliques is
// built — so that a family of a million cliques is a few hundred
// allocations that the collector does not scan, not a million slices. The
// package imports nothing.
//
// # Ownership
//
// This is the one rule for every clique the engine hands out; the doc
// comments on core's sink, core.Stream, mce.EnumerateStream and mce.Result
// point here.
//
// A Family is owned by the goroutine that appends to it. A LocalExecutor
// worker and an intra-block pool worker each have their own for the batch
// they are running, a remote answer is decoded into one of its own, a
// resumed level's segments into one, and nobody else reads any of them
// until the batch is over. A finished batch is handed
// up as Windows, which are (family, first, count) triples: handing a Window
// on moves the cliques, it never copies them, and the family then belongs
// to whoever holds the last Window into it.
//
// At returns a view: a slice into the arena, clipped to its own capacity.
// The holder may overwrite the members in place — the hub recursion
// translates node IDs that way — and may append to it, which copies (the
// clipped capacity makes append reallocate, so it can never write into the
// neighbouring clique). A view stays valid for as long as it is referenced,
// and keeps its whole arena alive for as long.
//
// A streamed clique (core.Stream, mce.EnumerateStream) is a view that is
// valid until the emit call returns: the engine drops or reuses the arena
// afterwards, so a consumer that keeps a clique copies it. An accumulated
// one (core.Result.Cliques[i], mce.Result) is a view into an arena the
// result adopted from the level that found it, valid for as long as the
// result is; retaining one clique of a result retains that level's arena.
package family

// chunkLen is how many members a chunk holds, 256 KiB of them, and pageLen
// how many cliques a page of the index does, 32 KiB. A family's first chunk
// and first page grow as append grows them, so a family of a dozen cliques
// costs what a dozen cliques cost; every later one is allocated full-size
// and never grows, so a family of millions is never copied to make room —
// the flat []int32 this replaced allocated five times its final size on the
// way there.
const (
	chunkLen = 1 << 16
	pageLen  = 1 << 12
)

// slot is one clique in the index: the chunk its members lie in and where
// they end there. They start where the previous clique of that chunk ends.
// Both are offsets within a level of the arena, not into all of it, so
// neither bounds its size short of 2^32 chunks.
type slot struct{ chunk, end uint32 }

// Family is an append-only clique family: the members of its cliques back
// to back in chunks, a clique never straddling two, and an index of one
// slot per clique. The zero value is empty and ready. A Family serves one
// goroutine at a time.
type Family struct {
	chunks  [][]int32 // chunks[:used] hold the members; the rest is spare, kept by Truncate
	used    int
	pages   [][]slot // clique i is pages[i/pageLen][i%pageLen]; pages past the last clique are spare
	n       int      // cliques
	members int      // members over all cliques
}

// Of returns a family holding copies of cliques, in order.
func Of(cliques [][]int32) *Family {
	f := new(Family)
	for _, c := range cliques {
		f.Append(c)
	}
	return f
}

// Append copies c onto the end of the family.
func (f *Family) Append(c []int32) { copy(f.Extend(len(c)), c) }

// Extend appends a clique of k members to the family and returns them, in
// the arena, for the caller to fill — so a clique can be written into the
// arena in the pass that produces it, not copied there afterwards.
//
//mce:hotpath per-clique emit on the enumerate leg
func (f *Family) Extend(k int) []int32 {
	// The chunk is closed when the clique would take it past chunkLen; a
	// clique longer than that gets a chunk to itself, which append sizes.
	if f.used == 0 || (len(f.chunks[f.used-1]) > 0 && len(f.chunks[f.used-1])+k > chunkLen) {
		if f.used == len(f.chunks) {
			var chunk []int32
			if f.used > 0 {
				chunk = make([]int32, 0, chunkLen)
			}
			f.chunks = append(f.chunks, chunk)
		}
		f.used++
	}
	tail := &f.chunks[f.used-1]
	n := len(*tail)
	if cap(*tail)-n < k {
		*tail = append(*tail, make([]int32, k)...)
	}
	*tail = (*tail)[:n+k]
	f.members += k
	p := f.n / pageLen
	if p == len(f.pages) {
		var page []slot
		if p > 0 {
			page = make([]slot, 0, pageLen)
		}
		f.pages = append(f.pages, page)
	}
	f.pages[p] = append(f.pages[p], slot{chunk: uint32(f.used - 1), end: uint32(n + k)})
	f.n++
	return (*tail)[n : n+k : n+k]
}

// Len returns the number of cliques.
func (f *Family) Len() int { return f.n }

// Members returns the number of members over all cliques.
func (f *Family) Members() int { return f.members }

// ArenaBytes returns the bytes the family holds on the heap, used or not.
func (f *Family) ArenaBytes() int {
	held := 0
	for _, c := range f.chunks {
		held += 4 * cap(c)
	}
	for _, p := range f.pages {
		held += 8 * cap(p)
	}
	return held
}

// At returns clique i as a view into the arena; see the package comment for
// what the holder may do with it.
func (f *Family) At(i int) []int32 {
	s := f.pages[i/pageLen][i%pageLen]
	start := uint32(0)
	if i > 0 {
		if prev := f.pages[(i-1)/pageLen][(i-1)%pageLen]; prev.chunk == s.chunk {
			start = prev.end
		}
	}
	return f.chunks[s.chunk][start:s.end:s.end]
}

// Truncate drops every clique from the n-th on and keeps the capacity.
// Views of dropped cliques are overwritten by later appends.
func (f *Family) Truncate(n int) {
	used, end := 0, 0
	if n > 0 {
		last := f.pages[(n-1)/pageLen][(n-1)%pageLen]
		used, end = int(last.chunk)+1, int(last.end)
	}
	for c := used; c < f.used; c++ {
		f.members -= len(f.chunks[c])
		f.chunks[c] = f.chunks[c][:0]
	}
	if used > 0 {
		f.members -= len(f.chunks[used-1]) - end
		f.chunks[used-1] = f.chunks[used-1][:end]
	}
	for p := n / pageLen; p < len(f.pages) && p*pageLen < f.n; p++ {
		f.pages[p] = f.pages[p][:max(n-p*pageLen, 0)]
	}
	f.used, f.n = used, n
}

// Window returns the window over the whole family.
func (f *Family) Window() Window { return Window{F: f, Count: f.Len()} }

// Views appends a view of every clique to dst, growing it at most once and
// to exactly the size needed.
func (f *Family) Views(dst [][]int32) [][]int32 { return f.Window().Views(dst) }

// Window is a run of Count consecutive cliques of F starting at First: one
// block's result, or the survivors of a filter. The zero Window is empty.
type Window struct {
	F     *Family
	First int
	Count int
}

// At returns the i-th clique of the window, as Family.At does.
func (w Window) At(i int) []int32 { return w.F.At(w.First + i) }

// Views appends a view of every clique of the window to dst, growing it at
// most once and to exactly the size needed.
func (w Window) Views(dst [][]int32) [][]int32 {
	if need := len(dst) + w.Count; need > cap(dst) {
		grown := make([][]int32, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < w.Count; i++ {
		dst = append(dst, w.At(i))
	}
	return dst
}
