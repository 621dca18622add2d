package experiments

import (
	"fmt"
	"sort"
	"time"

	"mce/internal/bitset"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// NeglectHubsResult quantifies what a single-level, hub-neglecting
// decomposition (the EmMCE-style baseline of §7, [10]) gets wrong.
type NeglectHubsResult struct {
	Ratio float64
	M     int
	// Truth is the number of maximal cliques of the graph.
	Truth int
	// Found is the number of distinct cliques the baseline reports.
	Found int
	// Missed counts true maximal cliques the baseline never reports.
	Missed int
	// Spurious counts reported cliques that are not maximal cliques of the
	// graph (they looked maximal inside a truncated block).
	Spurious int
	// MaxMissedSize is the size of the largest missed clique — the paper's
	// point that the lost cliques are among the most significant.
	MaxMissedSize int
	Elapsed       time.Duration
}

// NeglectHubs simulates the failure mode the paper fixes: every node is
// processed with its neighbourhood truncated to the block capacity, so hubs
// lose neighbours. The procedure mirrors a one-level kernel/visited
// decomposition — each node is the kernel of its own (truncated) block,
// earlier kernels are excluded — which is complete when no node is a hub
// and loses (and invents) cliques when hubs exist.
func NeglectHubs(g *graph.Graph, m int) ([][]int32, error) {
	n := g.N()
	// Process in increasing degree order, as suggested in [10].
	order := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})

	visited := bitset.New(n)
	inducer := graph.NewInducer(g) // one scratch for all n blocks
	var out [][]int32
	seen := map[string]bool{}
	for _, v := range order {
		nbrs := g.Neighbors(v)
		if len(nbrs) > m-1 {
			// The hub's neighbourhood does not fit: the block silently
			// keeps an arbitrary portion of it, which is precisely the
			// baseline's flaw. "Arbitrary" is modelled by a hash order —
			// truncating the sorted adjacency list instead would
			// systematically keep the low-ID early nodes, which in
			// preferential-attachment graphs are exactly the clique
			// partners, hiding the failure mode.
			hashed := make([]int32, len(nbrs))
			copy(hashed, nbrs)
			sort.Slice(hashed, func(i, j int) bool {
				return truncHash(v, hashed[i]) < truncHash(v, hashed[j])
			})
			nbrs = hashed[:m-1]
		}
		nodes := make([]int32, 0, len(nbrs)+1)
		nodes = append(nodes, v)
		nodes = append(nodes, nbrs...)
		sub, orig := inducer.Induced(nodes)

		// Local sets: R = {v}, P = unvisited neighbours, X = visited ones.
		P := bitset.New(sub.N())
		X := bitset.New(sub.N())
		for local, global := range orig {
			if local == 0 {
				continue // v itself
			}
			if visited.Has(global) {
				X.Add(int32(local))
			} else {
				P.Add(int32(local))
			}
		}
		err := mcealg.EnumerateSubproblem(sub, mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}.Bounded(sub.N()),
			[]int32{0}, P, X, func(local []int32) {
				clique := make([]int32, len(local))
				for i, lv := range local {
					clique[i] = orig[lv]
				}
				sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
				k := cliqueKey(clique)
				if !seen[k] {
					seen[k] = true
					out = append(out, clique)
				}
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: neglect-hubs block for node %d: %w", v, err)
		}
		visited.Add(v)
	}
	return out, nil
}

// truncHash mixes the kernel and neighbour IDs so the kept portion of a
// truncated neighbourhood is effectively arbitrary per block.
func truncHash(v, u int32) uint32 {
	x := uint32(v)*2654435761 ^ uint32(u)*40503
	x ^= x >> 16
	return x * 2246822519
}

// HubNeglectBaseline compares NeglectHubs against the exact clique set for
// each m/d ratio — experiment X1 of DESIGN.md, backing the paper's claim
// that without hub handling "significant cliques would be undetected".
func HubNeglectBaseline(g *graph.Graph, ratios []float64) ([]NeglectHubsResult, error) {
	truth := map[string]int{}
	var err error
	all, err := mcealg.Collect(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists})
	if err != nil {
		return nil, err
	}
	for _, c := range all {
		truth[cliqueKey(c)] = len(c)
	}
	maxDeg := g.MaxDegree()
	out := make([]NeglectHubsResult, 0, len(ratios))
	for _, r := range ratios {
		m := int(r*float64(maxDeg) + 0.999)
		if m < 2 {
			m = 2
		}
		t0 := time.Now()
		found, ferr := NeglectHubs(g, m)
		if ferr != nil {
			return nil, ferr
		}
		res := NeglectHubsResult{
			Ratio: r, M: m,
			Truth: len(truth), Found: len(found),
			Elapsed: time.Since(t0),
		}
		foundSet := make(map[string]bool, len(found))
		for _, c := range found {
			k := cliqueKey(c)
			foundSet[k] = true
			if _, ok := truth[k]; !ok {
				res.Spurious++
			}
		}
		for k, size := range truth {
			if !foundSet[k] {
				res.Missed++
				if size > res.MaxMissedSize {
					res.MaxMissedSize = size
				}
			}
		}
		out = append(out, res)
	}
	return out, err
}

func cliqueKey(c []int32) string {
	b := make([]byte, 0, 5*len(c))
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}
