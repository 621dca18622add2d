package mce

import (
	"fmt"
	"mce/internal/community"
	"mce/internal/gio"
	"mce/internal/incremental"
	"mce/internal/kcore"
	"mce/internal/kplex"
	"mce/internal/maxclique"
	"mce/internal/relax"
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

// KCliques enumerates the maximal k-cliques of g (Luce's distance
// relaxation, §8): maximal sets whose members are pairwise within distance
// k in g. k = 1 is plain maximal clique enumeration.
func KCliques(g *Graph, k int) ([][]int32, error) { return relax.KCliques(g, k) }

// KClans enumerates the k-clans of g (Mokken): maximal k-cliques whose
// induced subgraph also has diameter ≤ k.
func KClans(g *Graph, k int) ([][]int32, error) { return relax.KClans(g, k) }

// KClubs reports k-clubs of g — node sets of induced diameter ≤ k that no
// single node extends — grown from the k-clans; exact for k = 1.
func KClubs(g *Graph, k int) ([][]int32, error) { return relax.KClubs(g, k) }

// IsKClub reports whether the subgraph induced by set is connected with
// diameter at most k.
func IsKClub(g *Graph, set []int32, k int) bool { return relax.IsKClub(g, set, k) }

// MaximumClique returns one largest clique of g via branch-and-bound with a
// colouring bound — far faster than enumerating every maximal clique when
// only the biggest community matters.
func MaximumClique(g *Graph) []int32 { return maxclique.Find(g) }

// CliqueNumber returns ω(g), the size of g's largest clique.
func CliqueNumber(g *Graph) int { return maxclique.Size(g) }

// Tracker maintains the maximal cliques of an evolving graph under edge
// insertions and deletions; see NewTracker.
type Tracker = incremental.Tracker

// NewTracker bootstraps incremental clique maintenance from g: AddEdge and
// RemoveEdge then update the clique set locally instead of re-enumerating,
// the paper's future-work scenario of evolving social networks (§8).
func NewTracker(g *Graph) (*Tracker, error) { return incremental.New(g) }

// NewEmptyTracker starts incremental maintenance from an edgeless graph on
// n nodes.
func NewEmptyTracker(n int) *Tracker { return incremental.NewEmpty(n) }

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

// Stats computes the sparsity metrics of g in linear time.
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

// Coreness returns each node's core number (the largest k such that the
// node survives in the k-core), a per-node sparsity profile.
func Coreness(g *Graph) []int32 {
	return kcore.Decompose(g).Coreness
}

// SavePartitioned writes g as part-<i>.triples files under dir, the
// distributed input layout of the paper's loading phase (§6.2).
func SavePartitioned(dir string, g *Graph, parts int) error {
	return gio.WritePartitioned(dir, g, parts)
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
