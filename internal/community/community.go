// Package community turns the output of maximal clique enumeration into
// overlapping communities, the application the paper motivates (§1, §7) and
// the k-clique relaxation it names as future work (§8).
//
// The method is clique percolation (Palla et al., as implemented by
// CFinder and by the parallel k-clique detector of Gregori et al. [20]):
// two maximal cliques of size ≥ k belong to the same k-clique community
// when they can be connected by a chain of maximal cliques in which
// consecutive cliques share at least k−1 nodes. A node may belong to
// several communities — the overlapping behaviour the paper argues plain
// edge clustering cannot deliver (§7).
package community

import (
	"cmp"
	"fmt"
	"slices"
)

// Community is one overlapping community: the union of the nodes of a
// percolation-connected clique family.
type Community struct {
	// Nodes lists the members, ascending.
	Nodes []int32
	// Cliques counts how many maximal cliques merged into the community.
	Cliques int
	// MaxCliqueSize is the size of the largest constituent clique.
	MaxCliqueSize int
}

// Detect runs k-clique percolation over a family of maximal cliques (as
// produced by the enumeration engine), each with ascending members.
// Cliques smaller than k are ignored. Communities come back in the order
// Percolate gives them.
func Detect(cliques [][]int32, k int) ([]Community, error) {
	var members []int32
	offsets := []int{0}
	for _, c := range cliques {
		if len(c) >= k {
			members = append(members, c...)
			offsets = append(offsets, len(members))
		}
	}
	return Percolate(members, offsets, k)
}

// Percolate runs k-clique percolation over a flat clique family: clique i
// is members[offsets[i]:offsets[i+1]], ascending, with at least k members.
// Communities come back in a total order — size descending, then Nodes
// lexicographically, then Cliques, then MaxCliqueSize — so a family gives
// the same answer whatever order its cliques arrive in.
func Percolate(members []int32, offsets []int, k int) ([]Community, error) {
	if k < 2 {
		return nil, fmt.Errorf("community: k = %d, want ≥ 2", k)
	}
	n := len(offsets) - 1
	if n <= 0 {
		return []Community{}, nil
	}
	for i := 0; i < n; i++ {
		if offsets[i+1]-offsets[i] < k {
			return nil, fmt.Errorf("community: clique %d has %d members, want ≥ k = %d", i, offsets[i+1]-offsets[i], k)
		}
	}
	members = members[:offsets[n]]
	clique := func(i int32) []int32 { return members[offsets[i]:offsets[i+1]] }

	// Postings are arrays indexed by node. Dense IDs index them as an offset
	// from the smallest; a family with a few far-apart (or negative) IDs is
	// relabelled to ranks instead, so no array is sized by the largest ID.
	lo, hi := slices.Min(members[offsets[0]:]), slices.Max(members[offsets[0]:])
	span := int(hi) - int(lo) + 1
	var names []int32 // rank → node ID, when relabelled
	if span > 2*len(members)+64 {
		names = slices.Clone(members[offsets[0]:])
		slices.Sort(names)
		names = slices.Compact(names)
		ranked := make([]int32, len(members))
		for i, v := range members[offsets[0]:] {
			r, _ := slices.BinarySearch(names, v)
			ranked[offsets[0]+i] = int32(r)
		}
		members, lo, span = ranked, 0, len(names)
	}

	// Node → clique postings in CSR form, each list ascending by clique.
	start := make([]int, span+1)
	for _, v := range members[offsets[0]:] {
		start[v-lo+1]++
	}
	for x := 0; x < span; x++ {
		start[x+1] += start[x]
	}
	next := slices.Clone(start[:span])
	post := make([]int32, start[span])
	for c := int32(0); c < int32(n); c++ {
		for _, v := range clique(c) {
			post[next[v-lo]] = c
			next[v-lo]++
		}
	}
	copy(next, start[:span])

	// Two cliques percolate when they share ≥ k−1 nodes. Clique a meets each
	// later clique b in the postings of a's members; next[x] walks past a in
	// node x's list, so what follows it there is exactly the later cliques.
	// If b shares ≥ k−1 of a's s members it contains one of any s−k+2 of
	// them, so only the s−k+2 shortest remaining lists are scanned.
	uf := newUnionFind(n)
	seen := make([]int32, n) // seen[b] = a+1 once b was tested against a
	var order []uint64       // remaining list length << 32 | node index
	for a := int32(0); a < int32(n); a++ {
		ca := clique(a)
		order = order[:0]
		for _, v := range ca {
			x := v - lo
			next[x]++
			order = append(order, uint64(start[x+1]-next[x])<<32|uint64(x))
		}
		slices.Sort(order)
		ra := uf.find(a)
		for _, o := range order[:len(ca)-k+2] {
			x := int32(uint32(o))
			for _, b := range post[next[x]:start[x+1]] {
				if seen[b] == a+1 {
					continue
				}
				seen[b] = a + 1
				if uf.find(b) != ra && overlapAtLeast(ca, clique(b), k-1) {
					uf.union(a, b)
					ra = uf.find(a)
				}
			}
		}
	}

	// Number the components in clique order, then fill every community's
	// nodes by walking the nodes ascending: each list comes out sorted and
	// deduplicated, into one presized buffer.
	group := seen              // clique → community, reusing the scratch
	byRoot := make([]int32, n) // root → community + 1
	groups := 0
	for c := int32(0); c < int32(n); c++ {
		if uf.find(c) == c {
			groups++
		}
	}
	out := make([]Community, 0, groups)
	for c := int32(0); c < int32(n); c++ {
		r := uf.find(c)
		if byRoot[r] == 0 {
			out = append(out, Community{})
			byRoot[r] = int32(len(out))
		}
		g := byRoot[r] - 1
		group[c] = g
		out[g].Cliques++
		out[g].MaxCliqueSize = max(out[g].MaxCliqueSize, len(clique(c)))
	}
	last := make([]int, groups) // last[g] = x+1 once node x is counted for g
	fill := make([]int, groups+1)
	for x := 0; x < span; x++ {
		for _, c := range post[start[x]:start[x+1]] {
			if g := group[c]; last[g] != x+1 {
				last[g] = x + 1
				fill[g+1]++
			}
		}
	}
	for g := 0; g < groups; g++ {
		fill[g+1] += fill[g]
	}
	nodes := make([]int32, fill[groups])
	at := slices.Clone(fill[:groups])
	for x := 0; x < span; x++ {
		id := int32(x) + lo
		if names != nil {
			id = names[x]
		}
		for _, c := range post[start[x]:start[x+1]] {
			if g := group[c]; at[g] == fill[g] || nodes[at[g]-1] != id {
				nodes[at[g]] = id
				at[g]++
			}
		}
	}
	for g := range out {
		out[g].Nodes = nodes[fill[g]:fill[g+1]:fill[g+1]]
	}
	slices.SortFunc(out, compare)
	return out, nil
}

// compare is the total order communities are returned in.
func compare(a, b Community) int {
	if c := cmp.Compare(len(b.Nodes), len(a.Nodes)); c != 0 {
		return c
	}
	if c := slices.Compare(a.Nodes, b.Nodes); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Cliques, b.Cliques); c != 0 {
		return c
	}
	return cmp.Compare(a.MaxCliqueSize, b.MaxCliqueSize)
}

// Membership inverts a community list into node → community indices
// (ascending), exposing the overlap structure.
func Membership(communities []Community) map[int32][]int {
	m := map[int32][]int{}
	for i, c := range communities {
		for _, v := range c.Nodes {
			m[v] = append(m[v], i)
		}
	}
	return m
}

// overlapAtLeast reports |a ∩ b| ≥ want for ascending slices, stopping as
// soon as the bound is met or unreachable.
func overlapAtLeast(a, b []int32, want int) bool {
	if want <= 0 {
		return true
	}
	i, j, got := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			got++
			if got >= want {
				return true
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		if got+min(len(a)-i, len(b)-j) < want {
			return false
		}
	}
	return false
}

// unionFind is a path-halving weighted union-find over [0, n).
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
