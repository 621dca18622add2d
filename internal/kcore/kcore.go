// Package kcore computes the sparsity metrics the paper builds on: the
// degeneracy of a network (its largest core number) and the d* statistic
// used as a decision-tree feature (paper §4: the largest d* such that at
// least d* nodes have degree ≥ d*, i.e. the h-index of the degree
// sequence).
//
// The degeneracy comes from the classic linear-time bucket peeling of
// Matula–Beck / Batagelj–Zaveršnik [4]: repeatedly remove a minimum-degree
// node; the degeneracy is the largest degree seen at removal time.
package kcore

import (
	"math"

	"mce/internal/graph"
)

// Degeneracy returns the degeneracy of g, peeling from a fresh Scratch.
func Degeneracy(g *graph.Graph) int {
	var s Scratch
	return s.Degeneracy(g)
}

// Scratch is the working memory of the peeling and of DStar, sized by the
// largest graph seen and reused: a goroutine that measures block after block
// (the combo selector on an executor worker) holds one and measures without
// allocating. The zero value is ready; a Scratch serves one goroutine.
type Scratch struct {
	buf []int32
	// Peels counts the peelings run from this scratch, so a caller — or a
	// test — can see how many a bound spared.
	Peels int
}

// ints returns n int32s of the scratch, contents unspecified.
func (s *Scratch) ints(n int) []int32 {
	if cap(s.buf) < n {
		s.buf = make([]int32, n)
	}
	return s.buf[:n]
}

// Degeneracy returns the degeneracy of g.
//
//mce:hotpath per-block selector feature (worker-side select)
func (s *Scratch) Degeneracy(g *graph.Graph) int {
	return s.peel(g)
}

// peel removes the nodes of g by minimum remaining degree and returns the
// largest degree seen at removal time.
func (s *Scratch) peel(g *graph.Graph) int {
	s.Peels++
	n := g.N()
	if n == 0 {
		return 0
	}
	maxDeg := g.MaxDegree()
	buf := s.ints(3*n + 2*(maxDeg+2))
	deg, vert, pos := buf[:n], buf[n:2*n], buf[2*n:3*n]
	bin, fill := buf[3*n:3*n+maxDeg+2], buf[3*n+maxDeg+2:]

	// Bucket sort nodes by degree: bin[d] is the start index of degree-d
	// nodes inside vert, pos[v] is v's index in vert.
	clear(bin)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		bin[deg[v]+1]++
	}
	for i := 1; i < len(bin); i++ {
		bin[i] += bin[i-1]
	}
	copy(fill, bin)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = int32(v)
		fill[deg[v]]++
	}

	degeneracy := int32(0)
	for i := 0; i < n; i++ {
		v := vert[i]
		if deg[v] > degeneracy {
			degeneracy = deg[v]
		}
		for _, u := range g.Neighbors(v) {
			// A removed neighbour left at a degree no larger than deg[v]
			// (removal degrees never fall along the order), so this one
			// test skips removed and equal-degree neighbours alike.
			if deg[u] <= deg[v] {
				continue
			}
			// Move u one degree bucket down: swap it with the first
			// element of its current bucket, then advance that bucket.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[du]++
			deg[u]--
		}
	}
	return int(degeneracy)
}

// DegeneracyBound returns min(N−1, max degree, ⌊(√(8M+1)−1)/2⌋), an upper
// bound on the degeneracy of g that costs one pass over the degrees: a
// k-core has at least k+1 nodes of degree at least k, hence at least
// k(k+1)/2 edges, so k ≤ N−1, k ≤ max degree and k(k+1)/2 ≤ M. A decision
// that only needs "degeneracy ≤ t" is settled without peeling whenever the
// bound is already ≤ t.
func DegeneracyBound(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	x := 8*g.M() + 1
	r := int(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return min(g.N()-1, g.MaxDegree(), (r-1)/2)
}

// DStar returns the h-index of the degree sequence: the maximum value d*
// such that the graph has at least d* nodes with degree ≥ d*. The paper uses
// it as a linear-time estimate of the size of the densest portion of a block.
func DStar(g *graph.Graph) int {
	var s Scratch
	return s.DStar(g)
}

// DStar is the package-level DStar on the scratch.
//
//mce:hotpath per-block selector feature (worker-side select)
func (s *Scratch) DStar(g *graph.Graph) int {
	n := g.N()
	// counts[d] = number of nodes with degree exactly d (degrees are < n).
	counts := s.ints(n + 1)
	clear(counts)
	for v := int32(0); v < int32(n); v++ {
		counts[g.Degree(v)]++
	}
	atLeast := 0
	for d := n; d >= 0; d-- {
		atLeast += int(counts[d])
		if atLeast >= d {
			return d
		}
	}
	return 0
}

// Features bundles the five block parameters the paper's decision tree
// consumes (§4: nodes, edges, density, degeneracy, d*).
type Features struct {
	Nodes      int
	Edges      int
	Density    float64
	Degeneracy int
	DStar      int
}

// Measure extracts the decision-tree features of g.
func Measure(g *graph.Graph) Features {
	return Features{
		Nodes:      g.N(),
		Edges:      g.M(),
		Density:    g.Density(),
		Degeneracy: Degeneracy(g),
		DStar:      DStar(g),
	}
}
