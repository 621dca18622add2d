// Package filter implements the final step of FIND-MAX-CLIQUES (Algorithm 1,
// line 7 and Lemma 1): given the cliques Ch found on the hub-induced
// subgraph and the cliques Cf found on the feasible blocks, discard every
// member of Ch contained in some member of Cf. What survives is exactly the
// set of maximal cliques of the whole graph made of hub nodes only.
//
// Two forms are provided. The engine (package core) runs the extension test
// — Extensible, and ByExtension over a whole family — which exploits
// Lemma 1's case analysis: a clique c that is maximal in the hub-induced
// subgraph is non-maximal in G exactly when some feasible node is adjacent
// to every node of c. It needs the level's graph, which the coordinator
// always has, and no index over Cf, so streaming and accumulating runs share
// it. Filter is the paper's own form, the containment test against an
// inverted index over Cf (its data flow: workers ship cliques, not the
// graph). The engine no longer calls it; it is kept as the reference the
// tests prove the extension test against, and the benchmark trace and the
// filter ablation time it.
package filter

import (
	"sort"

	"mce/internal/graph"
)

// Index is an inverted node→clique map supporting containment queries
// against a fixed clique family. Cliques must be sorted ascending.
type Index struct {
	byNode  map[int32][]int32 // node → indices into cliques
	cliques [][]int32
}

// NewIndex builds an index over cliques; the slices are retained, not
// copied, and must not change while the index is in use.
func NewIndex(cliques [][]int32) *Index {
	ix := &Index{byNode: make(map[int32][]int32), cliques: cliques}
	for i, c := range cliques {
		for _, v := range c {
			ix.byNode[v] = append(ix.byNode[v], int32(i))
		}
	}
	return ix
}

// ContainedIn reports whether c (sorted ascending) is a subset of some
// indexed clique. The candidate list is taken from c's member with the
// fewest clique memberships, so the check degrades gracefully on skewed
// clique families.
func (ix *Index) ContainedIn(c []int32) bool {
	if len(c) == 0 {
		return len(ix.cliques) > 0
	}
	rarest := ix.byNode[c[0]]
	for _, v := range c {
		ids, ok := ix.byNode[v]
		if !ok {
			return false
		}
		if len(ids) < len(rarest) {
			rarest = ids
		}
	}
	for _, id := range rarest {
		if isSubsetSorted(c, ix.cliques[id]) {
			return true
		}
	}
	return false
}

// isSubsetSorted reports a ⊆ b for ascending slices.
func isSubsetSorted(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// Filter returns the members of ch not contained in any member of cf — the
// paper's filter(Ch, Cf). Input cliques must be sorted ascending; the
// returned slices alias ch's entries.
func Filter(ch, cf [][]int32) [][]int32 {
	ix := NewIndex(cf)
	out := make([][]int32, 0, len(ch))
	for _, c := range ch {
		if !ix.ContainedIn(c) {
			out = append(out, c)
		}
	}
	return out
}

// ByExtension returns the members of ch that are maximal in g, assuming each
// member is maximal within the subgraph induced by the non-feasible nodes:
// by Lemma 1's case analysis, such a clique fails to be maximal in g exactly
// when some node for which feasible reports true is adjacent to every member.
// The returned slices alias ch's entries.
func ByExtension(g *graph.Graph, ch [][]int32, feasible func(int32) bool) [][]int32 {
	out := make([][]int32, 0, len(ch))
	for _, c := range ch {
		if !extendableByFeasible(g, c, feasible) {
			out = append(out, c)
		}
	}
	return out
}

// Extensible reports whether some node accepted by feasible is adjacent to
// every member of c — the Lemma 1 predicate behind ByExtension, and the one
// test package core applies to each hub-side clique as it arrives.
func Extensible(g *graph.Graph, c []int32, feasible func(int32) bool) bool {
	return extendableByFeasible(g, c, feasible)
}

func extendableByFeasible(g *graph.Graph, c []int32, feasible func(int32) bool) bool {
	if len(c) == 0 {
		return g.N() > 0
	}
	// Scan the neighbourhood of the lowest-degree member.
	pivot := c[0]
	for _, v := range c[1:] {
		if g.Degree(v) < g.Degree(pivot) {
			pivot = v
		}
	}
	for _, u := range g.Neighbors(pivot) {
		if !feasible(u) {
			continue
		}
		if adjacentToAll(g, u, c) {
			return true
		}
	}
	return false
}

func adjacentToAll(g *graph.Graph, u int32, c []int32) bool {
	for _, v := range c {
		if v == u || !g.HasEdge(u, v) {
			return false
		}
	}
	return true
}

// Dedup removes duplicate cliques (sorted ascending) from cs, preserving
// first occurrences. It is used by tests and by defensive callers; the
// two-level pipeline itself never produces duplicates.
func Dedup(cs [][]int32) [][]int32 {
	seen := make(map[string]bool, len(cs))
	out := cs[:0:0]
	var buf []byte
	for _, c := range cs {
		buf = buf[:0]
		for _, v := range c {
			buf = append(buf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ';')
		}
		k := string(buf)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// SortCliques orders a clique family lexicographically, shortest first on
// ties, for deterministic output.
func SortCliques(cs [][]int32) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
