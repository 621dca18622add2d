package mce

import (
	"fmt"
	"mce/internal/community"
	"mce/internal/gio"
	"mce/internal/incremental"
	"mce/internal/kcore"
	"mce/internal/kplex"
)

// Community is one overlapping k-clique community; see Communities.
type Community = community.Community

// Communities groups the maximal cliques of a Result into overlapping
// k-clique communities by clique percolation: cliques of size ≥ k that
// share at least k−1 nodes (directly or through a chain of such cliques)
// merge into one community. k must be ≥ 2. Communities come back
// largest-first, ties by node list, so the same family always gives the
// same slice.
func Communities(res *Result, k int) ([]Community, error) {
	return community.Detect(res.Cliques, k)
}

// CommunityMembership inverts a community list into node → community
// indices, exposing which nodes bridge several communities.
func CommunityMembership(communities []Community) map[int32][]int {
	return community.Membership(communities)
}

// KPlexes enumerates the maximal k-plexes of g with at least minSize nodes
// — the relaxed community model of the paper's future work (§8). A k-plex
// lets every member miss up to k members (k = 1 is exactly a clique);
// minSize ≤ 0 defaults to 2k−1, which guarantees connected results.
func KPlexes(g *Graph, k, minSize int) ([][]int32, error) {
	return kplex.Collect(g, kplex.Options{K: k, MinSize: minSize})
}

// Tracker maintains the maximal cliques of an evolving graph under edge
// insertions and deletions; see NewTracker.
type Tracker = incremental.Tracker

// NewTracker bootstraps incremental clique maintenance from g: AddEdge and
// RemoveEdge then update the clique set locally instead of re-enumerating,
// the paper's future-work scenario of evolving social networks (§8).
func NewTracker(g *Graph) (*Tracker, error) { return incremental.New(g) }

// GraphStats bundles the sparsity metrics of a network: the degeneracy d
// (the paper's termination measure, Theorem 1), the d* densest-portion
// estimate, density and degree extremes.
type GraphStats struct {
	Nodes, Edges int
	MaxDegree    int
	Density      float64
	Degeneracy   int
	DStar        int
}

// GraphMetrics computes the sparsity metrics of g in linear time.
func GraphMetrics(g *Graph) GraphStats {
	f := kcore.Measure(g)
	return GraphStats{
		Nodes: f.Nodes, Edges: f.Edges,
		MaxDegree:  g.MaxDegree(),
		Density:    f.Density,
		Degeneracy: f.Degeneracy,
		DStar:      f.DStar,
	}
}

// LoadPartitioned merges every part-*.triples file under dir into one
// graph.
func LoadPartitioned(dir string) (*Graph, *LabelMap, error) {
	return gio.ReadPartitioned(dir)
}

// VerifyResult independently checks an enumeration result against its
// graph: every reported set must be a clique, maximal (no vertex extends
// it), and reported exactly once. It returns nil when the result is a valid
// family of distinct maximal cliques — note it does not prove completeness
// (that no clique is missing), which would require a second enumeration.
// Intended for downstream pipelines that want a cheap trust-but-verify step
// after distributed runs.
func VerifyResult(g *Graph, res *Result) error {
	if len(res.Level) != len(res.Cliques) {
		return fmt.Errorf("mce: %d level entries for %d cliques", len(res.Level), len(res.Cliques))
	}
	seen := make(map[string]bool, len(res.Cliques))
	var keyBuf []byte
	for idx, c := range res.Cliques {
		if len(c) == 0 {
			return fmt.Errorf("mce: clique %d is empty", idx)
		}
		keyBuf = keyBuf[:0]
		for i, v := range c {
			if v < 0 || int(v) >= g.N() {
				return fmt.Errorf("mce: clique %d: node %d out of range", idx, v)
			}
			if i > 0 && c[i-1] >= v {
				return fmt.Errorf("mce: clique %d is not strictly ascending", idx)
			}
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		k := string(keyBuf)
		if seen[k] {
			return fmt.Errorf("mce: clique %d reported twice", idx)
		}
		seen[k] = true
		for i, u := range c {
			for _, v := range c[i+1:] {
				if !g.HasEdge(u, v) {
					return fmt.Errorf("mce: clique %d: %d and %d are not adjacent", idx, u, v)
				}
			}
		}
		// Maximality: scan the lowest-degree member's neighbourhood.
		pivot := c[0]
		for _, v := range c[1:] {
			if g.Degree(v) < g.Degree(pivot) {
				pivot = v
			}
		}
	scan:
		for _, w := range g.Neighbors(pivot) {
			for _, v := range c {
				if v == w || !g.HasEdge(v, w) {
					continue scan
				}
			}
			return fmt.Errorf("mce: clique %d extensible by node %d", idx, w)
		}
	}
	return nil
}

// Degrees returns the degree sequence of g.
func Degrees(g *Graph) []int {
	out := make([]int, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		out[v] = g.Degree(v)
	}
	return out
}
