// Package gen produces the synthetic networks used throughout the
// reproduction: the Erdős–Rényi, Barabási–Albert and Watts–Strogatz models
// the paper trains its decision tree on (§4), a Holme–Kim model (preferential
// attachment with triad formation) whose high clustering yields the clique
// structure of real social networks, a planted-clique overlay, the
// adversarial H_n chain of Theorem 1, and deterministic scaled-down
// surrogates of the paper's five SNAP/KONECT datasets (§6.1).
//
// Every generator takes an explicit seed so experiments are reproducible.
package gen

import (
	"math"
	"math/rand"
	"slices"

	"mce/internal/graph"
)

// ErdosRenyi returns a G(n, p) random graph: every unordered pair becomes an
// edge independently with probability p.
func ErdosRenyi(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if p > 0 {
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small clique on k+1 nodes, every new node attaches to k existing nodes
// chosen proportionally to their degree. The result is scale-free with a
// power-law degree tail, the hub-producing regime the paper targets.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// repeated holds every edge endpoint once per incidence, so uniform
	// sampling from it is degree-proportional sampling.
	repeated := make([]int32, 0, 2*n*k)
	for u := int32(0); u <= int32(k); u++ {
		for v := u + 1; v <= int32(k); v++ {
			b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	targets := make([]int32, 0, k) // distinct, ascending
	for v := int32(k + 1); v < int32(n); v++ {
		targets = targets[:0]
		for len(targets) < k {
			targets, _ = insertAscending(targets, repeated[rng.Intn(len(repeated))])
		}
		// The target set drains in ascending order: repeated is sampled by
		// index later, so its contents must not depend on draw order.
		for _, u := range targets {
			b.AddEdge(v, u)
			repeated = append(repeated, v, u)
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every node
// connects to its k nearest neighbours (k rounded down to even), with each
// edge rewired to a uniform random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	if n < 3 {
		return graph.Complete(n)
	}
	if k >= n {
		k = n - 1
	}
	half := k / 2
	if half < 1 {
		half = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= half; j++ {
			u := v
			w := (v + j) % n
			if rng.Float64() < beta {
				// Rewire to a random non-self endpoint; a duplicate edge
				// is dropped by the builder, matching the usual tolerance
				// of WS implementations.
				w = rng.Intn(n)
				if w == u {
					w = (u + 1) % n
				}
			}
			b.AddEdge(int32(u), int32(w))
		}
	}
	return b.Build()
}

// HolmeKim returns a scale-free graph with tunable clustering: like
// Barabási–Albert, but after each preferential attachment step a triad is
// closed with probability pt (the new node also connects to a random
// neighbour of the node it just attached to). High pt produces the dense,
// clique-rich communities typical of friendship networks, which makes the
// model a good substrate for surrogate social datasets.
func HolmeKim(n, k int, pt float64, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	repeated := make([]int32, 0, 2*n*k)
	// adj[u] is u's neighbours so far, ascending: a triad step draws one of
	// them by index, so the order must be a function of the edges alone.
	adj := make([][]int32, n)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		var fresh bool
		if adj[u], fresh = insertAscending(adj[u], v); !fresh {
			return false
		}
		adj[v], _ = insertAscending(adj[v], u)
		b.AddEdge(u, v)
		repeated = append(repeated, u, v)
		return true
	}
	for u := int32(0); u <= int32(k); u++ {
		for v := u + 1; v <= int32(k); v++ {
			addEdge(u, v)
		}
	}
	for v := int32(k + 1); v < int32(n); v++ {
		var last int32 = -1
		added := 0
		for attempts := 0; added < k && attempts < 20*k; attempts++ {
			if last >= 0 && rng.Float64() < pt {
				// Triad formation: connect to a random neighbour of last.
				if nbrs := adj[last]; len(nbrs) > 0 {
					w := nbrs[rng.Intn(len(nbrs))]
					if addEdge(v, w) {
						last = w
						added++
						continue
					}
				}
			}
			// Preferential attachment step.
			w := repeated[rng.Intn(len(repeated))]
			if addEdge(v, w) {
				last = w
				added++
			}
		}
	}
	return b.Build()
}

// insertAscending inserts v into the ascending run s and reports whether it
// was absent.
func insertAscending(s []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s, false
	}
	return slices.Insert(s, i, v), true
}

// PlantCliques overlays extra cliques on g: count cliques, each of a size
// drawn uniformly from [minSize, maxSize], over node sets sampled with a bias
// towards high-degree nodes (so that some planted cliques live entirely among
// hubs, the paper's effectiveness scenario). It returns a new graph; g is not
// modified.
func PlantCliques(g *graph.Graph, count, minSize, maxSize int, seed int64) *graph.Graph {
	if maxSize < minSize {
		maxSize = minSize
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	b := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	// Degree-biased sampling pool: nodes appear once per unit of degree+1.
	pool := make([]int32, 0, 2*g.M()+n)
	for v := int32(0); v < int32(n); v++ {
		for i := 0; i <= g.Degree(v); i++ {
			pool = append(pool, v)
		}
	}
	for c := 0; c < count; c++ {
		size := minSize
		if maxSize > minSize {
			size += rng.Intn(maxSize - minSize + 1)
		}
		members := map[int32]bool{}
		for attempts := 0; len(members) < size && attempts < 50*size; attempts++ {
			members[pool[rng.Intn(len(pool))]] = true
		}
		ms := make([]int32, 0, len(members))
		for v := range members {
			ms = append(ms, v)
		}
		for i := range ms {
			for j := i + 1; j < len(ms); j++ {
				b.AddEdge(ms[i], ms[j])
			}
		}
	}
	return b.Build()
}

// PowerLawConfiguration builds a graph with a power-law degree sequence by
// the Molloy–Reed configuration model: target degrees are drawn from
// P(d) ∝ d^(−alpha) on [dmin, dmax], half-edges are paired uniformly, and
// self loops / multi-edges are dropped. Unlike preferential attachment it
// controls the exponent directly, which makes it the natural generator for
// degree-distribution experiments (Figure 6).
func PowerLawConfiguration(n int, alpha float64, dmin, dmax int, seed int64) *graph.Graph {
	if n < 1 {
		n = 1
	}
	if dmin < 1 {
		dmin = 1
	}
	if dmax < dmin {
		dmax = dmin
	}
	if dmax > n-1 {
		dmax = n - 1
		if dmax < dmin {
			dmin = dmax
		}
	}
	rng := rand.New(rand.NewSource(seed))

	// Inverse-CDF sampling over the discrete power law.
	weights := make([]float64, dmax-dmin+1)
	total := 0.0
	for i := range weights {
		d := float64(dmin + i)
		weights[i] = math.Pow(d, -alpha)
		total += weights[i]
	}
	sample := func() int {
		r := rng.Float64() * total
		for i, w := range weights {
			r -= w
			if r <= 0 {
				return dmin + i
			}
		}
		return dmax
	}

	// Half-edge stubs; drop one stub if the sum is odd.
	var stubs []int32
	for v := 0; v < n; v++ {
		d := sample()
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1]) // loops/duplicates dropped by Build
	}
	return b.Build()
}

// HardChain builds the H_n construction from the proof of Theorem 1(2): the
// first m+1 nodes form a clique, and every later node v_j connects to the m
// previous nodes of lowest degree. Recursively removing nodes of degree ≤ m
// peels exactly one node per round, so the first-level decomposition needs
// Ω(n) recursion rounds even though the degeneracy stays below m+1.
func HardChain(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if n < m+2 {
		n = m + 2
	}
	_ = seed // construction is deterministic; parameter kept for API symmetry
	b := graph.NewBuilder(n)
	deg := make([]int, n)
	addEdge := func(u, v int32) {
		b.AddEdge(u, v)
		deg[u]++
		deg[v]++
	}
	for u := int32(0); u <= int32(m); u++ {
		for v := u + 1; v <= int32(m); v++ {
			addEdge(u, v)
		}
	}
	for j := int32(m + 1); j < int32(n); j++ {
		// Pick the m previous nodes with the lowest degree (ties by most
		// recent, matching the proof's figure where v_j attaches to the
		// m nodes just before it once the chain regime starts).
		type cand struct {
			v int32
			d int
		}
		cands := make([]cand, j)
		for v := int32(0); v < j; v++ {
			cands[v] = cand{v, deg[v]}
		}
		// Selection sort of the m smallest, preferring larger v on ties.
		for i := 0; i < m; i++ {
			best := i
			for t := i + 1; t < len(cands); t++ {
				if cands[t].d < cands[best].d ||
					(cands[t].d == cands[best].d && cands[t].v > cands[best].v) {
					best = t
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
			addEdge(j, cands[i].v)
		}
	}
	return b.Build()
}

// MoonMoser returns the complete k-partite graph with parts of size 3 — the
// Moon–Moser worst case with exactly 3^k maximal cliques, the bound the
// Tomita algorithm's O(3^(n/3)) analysis is tight on. Useful for stress
// tests and for demonstrating why output-sensitive enumeration matters.
func MoonMoser(k int) *graph.Graph {
	if k < 1 {
		k = 1
	}
	n := 3 * k
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/3 != v/3 {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}
