// Package graph provides the in-memory network representation shared by all
// stages of the two-level maximal clique enumeration pipeline.
//
// A Graph is simple (no self loops, no parallel edges) and undirected, stored
// as per-node sorted adjacency slices over a single backing array, which is
// the compact, cache-friendly layout that the decomposition routines and the
// Lists adjacency structure read directly. Nodes are dense int32 identifiers
// in [0, N()); external labels are mapped to dense IDs by package gio.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph. Build one with a Builder; a
// built Graph is safe for concurrent readers.
type Graph struct {
	offsets []int32 // len N()+1; adjacency of v is flat[offsets[v]:offsets[v+1]]
	flat    []int32 // concatenated sorted neighbour lists
}

// Edge is an undirected edge between two node identifiers.
type Edge struct {
	U, V int32
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.flat) / 2 }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.flat[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether u and v are adjacent. It runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Density returns 2M / (N(N-1)), the fraction of possible edges present.
// Graphs with fewer than two nodes have density 0.
func (g *Graph) Density() float64 {
	n := float64(g.N())
	if n < 2 {
		return 0
	}
	return 2 * float64(g.M()) / (n * (n - 1))
}

// CSR returns the graph's storage: row v is flat[offsets[v]:offsets[v+1]].
// Both slices alias the graph and must not be modified; FromCSR is the
// inverse.
func (g *Graph) CSR() (offsets, flat []int32) { return g.offsets, g.flat }

// Clone returns a graph over exact-size copies of g's storage — what a
// caller keeps of a graph that lives in someone else's buffers
// (Inducer.Scratch).
func (g *Graph) Clone() *Graph {
	return &Graph{offsets: slices.Clone(g.offsets), flat: slices.Clone(g.flat)}
}

// FromCSR adopts offsets and flat as a Graph without copying or sorting,
// after checking that they are one: offsets tile flat, every row is strictly
// ascending, in range and free of its own node, and every edge appears in
// both rows. It is the constructor for adjacency from outside the process.
func FromCSR(offsets, flat []int32) (*Graph, error) {
	n := len(offsets) - 1
	if n < 0 || offsets[0] != 0 || int(offsets[n]) != len(flat) {
		return nil, fmt.Errorf("graph: CSR offsets do not tile %d row entries", len(flat))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if lo > hi || int(hi) > len(flat) {
			return nil, fmt.Errorf("graph: CSR row %d spans [%d,%d)", v, lo, hi)
		}
		prev := int32(-1)
		for _, u := range flat[lo:hi] {
			if u <= prev || int(u) >= n || int(u) == v {
				return nil, fmt.Errorf("graph: CSR row %d is not a strictly ascending list of other nodes below %d", v, n)
			}
			prev = u
		}
	}
	// Symmetry in one pass: rows are ascending and u rises, so the edges
	// (u, v), u < v, reach row v in the order of its own entries below v;
	// next[v] is the entry of row v the next such edge must match.
	next := slices.Clone(offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range flat[offsets[u]:offsets[u+1]] {
			if int(v) < u {
				continue
			}
			if next[v] == offsets[v+1] || int(flat[next[v]]) != u {
				return nil, fmt.Errorf("graph: CSR edge (%d,%d) is missing from row %d", u, v, v)
			}
			next[v]++
		}
	}
	for v := 0; v < n; v++ {
		if next[v] < offsets[v+1] && int(flat[next[v]]) < v {
			return nil, fmt.Errorf("graph: CSR edge (%d,%d) is missing from row %d", v, flat[next[v]], flat[next[v]])
		}
	}
	return &Graph{offsets: offsets, flat: flat}, nil
}

// Edges returns all undirected edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.M())
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	return es
}

// DegreeHistogram returns counts[d] = number of nodes of degree d for
// d in [0, maxDeg]; degrees above maxDeg are accumulated into the last bin
// when truncate is true, and extend the slice otherwise.
func (g *Graph) DegreeHistogram(maxDeg int, truncate bool) []int {
	counts := make([]int, maxDeg+1)
	for v := int32(0); v < int32(g.N()); v++ {
		d := g.Degree(v)
		switch {
		case d <= maxDeg:
			counts[d]++
		case truncate:
			counts[maxDeg]++
		default:
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	return counts
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces a normalised Graph: undirected,
// deduplicated, self loops dropped, adjacency sorted. The zero value is not
// usable; create one with NewBuilder.
type Builder struct {
	n int
	// edges is the pair buffer, in chunks that double up to maxEdgeChunk
	// edges: growing it never copies, so a file's worth of edges is
	// allocated once, not five times over as append's 1.25× steps would.
	edges [][]Edge
}

const minEdgeChunk, maxEdgeChunk = 64, 1 << 17

// NewBuilder returns a Builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge records an undirected edge between u and v. Self loops and
// out-of-range endpoints are ignored; duplicates are removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	if u == v || u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return
	}
	if u > v {
		u, v = v, u
	}
	last := len(b.edges) - 1
	if last < 0 || len(b.edges[last]) == cap(b.edges[last]) {
		size := minEdgeChunk
		if last >= 0 {
			size = min(2*cap(b.edges[last]), maxEdgeChunk)
		}
		b.edges = append(b.edges, make([]Edge, 0, size))
		last++
	}
	b.edges[last] = append(b.edges[last], Edge{u, v})
}

// Grow raises the node count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// N returns the current node count of the builder.
func (b *Builder) N() int { return b.n }

// Build constructs the normalised Graph: it counts each row's length over
// the recorded edges, fills the rows, then sorts and deduplicates each row
// in place (the Inducer's row discipline), closing up the gaps duplicates
// leave. There is no global edge sort. The builder may be reused
// afterwards; further AddEdge calls do not affect the returned graph.
func (b *Builder) Build() *Graph {
	offsets := make([]int32, b.n+1)
	for _, chunk := range b.edges {
		for _, e := range chunk {
			offsets[e.U+1]++
			offsets[e.V+1]++
		}
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	flat := make([]int32, offsets[b.n])
	end := slices.Clone(offsets[:b.n]) // advances to the end of each row
	for _, chunk := range b.edges {
		for _, e := range chunk {
			flat[end[e.U]] = e.V
			end[e.U]++
			flat[end[e.V]] = e.U
			end[e.V]++
		}
	}
	at := int32(0)
	for v := 0; v < b.n; v++ {
		row := flat[offsets[v]:end[v]]
		offsets[v] = at
		slices.Sort(row)
		prev := int32(-1)
		for _, u := range row {
			if u != prev {
				flat[at] = u
				at++
				prev = u
			}
		}
	}
	offsets[b.n] = at
	if int(at) < len(flat) {
		flat = append(make([]int32, 0, at), flat[:at]...) // exact size without the duplicates
	}
	return &Graph{offsets: offsets, flat: flat}
}

// Empty returns a graph with n nodes and no edges.
func Empty(n int) *Graph {
	return NewBuilder(n).Build()
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
