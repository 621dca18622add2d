// Package incremental maintains the set of maximal cliques of a graph under
// edge insertions and deletions — the paper's "incremental version of our
// approach that takes into account the evolution of the social network"
// (§8, future work; cf. the incremental update discussion of [38]).
//
// The Tracker stores the current maximal cliques in an inverted index and
// updates them locally:
//
//   - inserting an edge (u, v) creates exactly the maximal cliques
//     {u, v} ∪ K where K is a maximal clique of the subgraph induced by
//     N(u) ∩ N(v), and subsumes any previous clique through u or v whose
//     remaining members all neighbour the other endpoint;
//   - deleting an edge (u, v) destroys exactly the cliques containing both
//     endpoints; each such clique leaves two candidates C\{u} and C\{v}
//     that become maximal unless some vertex still extends them.
//
// Both operations touch only the neighbourhoods of u and v, so maintaining
// a social network under a stream of friendships is far cheaper than
// re-running the full decomposition — the property the paper's future-work
// section is after.
package incremental

import (
	"fmt"
	"sort"

	"mce/internal/graph"
	"mce/internal/mcealg"
)

// Tracker maintains a dynamic simple undirected graph together with its
// complete set of maximal cliques. The zero value is not usable; create one
// with New.
type Tracker struct {
	n   int
	adj []map[int32]struct{}

	nextID  int64
	cliques map[int64][]int32    // clique ID → sorted members
	byNode  []map[int64]struct{} // node → clique IDs
}

// New bootstraps a tracker from an existing graph, enumerating its maximal
// cliques once with the stand-alone engine.
func New(g *graph.Graph) (*Tracker, error) {
	t := &Tracker{
		n:       g.N(),
		adj:     make([]map[int32]struct{}, g.N()),
		cliques: make(map[int64][]int32),
		byNode:  make([]map[int64]struct{}, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		t.adj[v] = make(map[int32]struct{}, g.Degree(int32(v)))
		t.byNode[v] = make(map[int64]struct{})
		for _, u := range g.Neighbors(int32(v)) {
			t.adj[v][u] = struct{}{}
		}
	}
	err := mcealg.Enumerate(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
		func(c []int32) {
			cp := make([]int32, len(c))
			copy(cp, c)
			t.insertClique(cp)
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// N returns the number of nodes.
func (t *Tracker) N() int { return t.n }

// M returns the number of edges.
func (t *Tracker) M() int {
	m := 0
	for _, a := range t.adj {
		m += len(a)
	}
	return m / 2
}

// Len returns the current number of maximal cliques.
func (t *Tracker) Len() int { return len(t.cliques) }

// HasEdge reports whether u and v are currently adjacent.
func (t *Tracker) HasEdge(u, v int32) bool {
	if !t.valid(u) || !t.valid(v) || u == v {
		return false
	}
	_, ok := t.adj[u][v]
	return ok
}

func (t *Tracker) valid(v int32) bool { return v >= 0 && int(v) < t.n }

// Cliques returns a copy of the current maximal cliques in deterministic
// (lexicographic) order.
func (t *Tracker) Cliques() [][]int32 {
	out := make([][]int32, 0, len(t.cliques))
	for _, c := range t.cliques {
		cp := make([]int32, len(c))
		copy(cp, c)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	return out
}

// CliquesOf returns the maximal cliques containing v, in deterministic
// order.
func (t *Tracker) CliquesOf(v int32) [][]int32 {
	if !t.valid(v) {
		return nil
	}
	out := make([][]int32, 0, len(t.byNode[v]))
	for id := range t.byNode[v] {
		c := t.cliques[id]
		cp := make([]int32, len(c))
		copy(cp, c)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return lexLess(out[i], out[j]) })
	return out
}

// AddEdge inserts the edge (u, v) and updates the clique set. It returns
// the cliques that became maximal and those that stopped being maximal,
// both in deterministic order. Inserting an existing edge or a self loop is
// a no-op.
func (t *Tracker) AddEdge(u, v int32) (added, removed [][]int32, err error) {
	if !t.valid(u) || !t.valid(v) {
		return nil, nil, fmt.Errorf("incremental: edge (%d, %d) out of range [0, %d)", u, v, t.n)
	}
	if u == v || t.HasEdge(u, v) {
		return nil, nil, nil
	}
	t.adj[u][v] = struct{}{}
	t.adj[v][u] = struct{}{}

	// Common neighbourhood of the new edge.
	common := t.commonNeighbors(u, v)

	// New maximal cliques: {u, v} ∪ K for each maximal clique K of the
	// subgraph induced by the common neighbourhood (K = ∅ when it is
	// empty: {u, v} itself).
	if len(common) == 0 {
		added = append(added, sorted2(u, v))
	} else {
		sub, orig := t.induced(common)
		err := mcealg.Enumerate(sub, comboFor(sub), func(k []int32) {
			c := make([]int32, 0, len(k)+2)
			c = append(c, u, v)
			for _, lv := range k {
				c = append(c, orig[lv])
			}
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
			added = append(added, c)
		})
		if err != nil {
			return nil, nil, err
		}
	}

	// Subsumed cliques: a clique through u (without v) dies iff all its
	// other members neighbour v — then clique ∪ {v} now exists and covers
	// it. Symmetrically for v.
	removed = append(removed, t.dropSubsumed(u, v)...)
	removed = append(removed, t.dropSubsumed(v, u)...)

	for _, c := range added {
		t.insertClique(c)
	}
	sortCliqueFamilies(added, removed)
	return added, removed, nil
}

// dropSubsumed removes and returns the cliques containing anchor (and not
// other) whose remaining members are all adjacent to other.
func (t *Tracker) dropSubsumed(anchor, other int32) [][]int32 {
	var gone [][]int32
	var ids []int64
	for id := range t.byNode[anchor] {
		c := t.cliques[id]
		if containsSorted(c, other) {
			continue
		}
		subsumed := true
		for _, w := range c {
			if w == anchor {
				continue
			}
			if !t.HasEdge(w, other) {
				subsumed = false
				break
			}
		}
		if subsumed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		gone = append(gone, t.cliques[id])
		t.deleteClique(id)
	}
	return gone
}

// RemoveEdge deletes the edge (u, v) and updates the clique set, returning
// the newly maximal and no-longer-maximal cliques. Removing an absent edge
// is a no-op.
func (t *Tracker) RemoveEdge(u, v int32) (added, removed [][]int32, err error) {
	if !t.valid(u) || !t.valid(v) {
		return nil, nil, fmt.Errorf("incremental: edge (%d, %d) out of range [0, %d)", u, v, t.n)
	}
	if u == v || !t.HasEdge(u, v) {
		return nil, nil, nil
	}
	delete(t.adj[u], v)
	delete(t.adj[v], u)

	// Cliques containing both endpoints are no longer cliques.
	var dead []int64
	for id := range t.byNode[u] {
		if containsSorted(t.cliques[id], v) {
			dead = append(dead, id)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })

	seen := map[string]bool{}
	for _, id := range dead {
		c := t.cliques[id]
		removed = append(removed, c)
		for _, drop := range [2]int32{u, v} {
			cand := withoutSorted(c, drop)
			key := cliqueKey(cand)
			if seen[key] {
				continue
			}
			seen[key] = true
			if len(cand) > 0 && t.isMaximal(cand) {
				added = append(added, cand)
			}
		}
		t.deleteClique(id)
	}
	for _, c := range added {
		t.insertClique(c)
	}
	sortCliqueFamilies(added, removed)
	return added, removed, nil
}

// isMaximal reports whether the clique cand (sorted) has no extender: no
// vertex outside cand adjacent to every member.
func (t *Tracker) isMaximal(cand []int32) bool {
	// Scan the smallest member adjacency.
	best := cand[0]
	for _, v := range cand[1:] {
		if len(t.adj[v]) < len(t.adj[best]) {
			best = v
		}
	}
	for w := range t.adj[best] {
		if containsSorted(cand, w) {
			continue
		}
		ok := true
		for _, x := range cand {
			if x == w {
				ok = false
				break
			}
			if _, adj := t.adj[w][x]; !adj {
				ok = false
				break
			}
		}
		if ok {
			return false
		}
	}
	// A singleton is maximal iff isolated.
	if len(cand) == 1 {
		return len(t.adj[cand[0]]) == 0
	}
	return true
}

// commonNeighbors returns N(u) ∩ N(v) as a sorted slice.
func (t *Tracker) commonNeighbors(u, v int32) []int32 {
	small, big := t.adj[u], t.adj[v]
	if len(big) < len(small) {
		small, big = big, small
	}
	var out []int32
	for w := range small {
		if _, ok := big[w]; ok {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// induced materialises the dynamic subgraph on nodes as an immutable graph.
func (t *Tracker) induced(nodes []int32) (*graph.Graph, []int32) {
	b := graph.NewBuilder(len(nodes))
	idx := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		idx[v] = int32(i)
	}
	for i, v := range nodes {
		for w := range t.adj[v] {
			if j, ok := idx[w]; ok && int32(i) < j {
				b.AddEdge(int32(i), j)
			}
		}
	}
	return b.Build(), nodes
}

// comboFor picks a sensible combo for the small update subproblems.
func comboFor(g *graph.Graph) mcealg.Combo {
	if g.N() <= 256 {
		return mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	}
	return mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}
}

func (t *Tracker) insertClique(c []int32) {
	id := t.nextID
	t.nextID++
	t.cliques[id] = c
	for _, v := range c {
		t.byNode[v][id] = struct{}{}
	}
}

func (t *Tracker) deleteClique(id int64) {
	for _, v := range t.cliques[id] {
		delete(t.byNode[v], id)
	}
	delete(t.cliques, id)
}

func containsSorted(c []int32, v int32) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
	return i < len(c) && c[i] == v
}

func withoutSorted(c []int32, v int32) []int32 {
	out := make([]int32, 0, len(c)-1)
	for _, x := range c {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func sorted2(u, v int32) []int32 {
	if u > v {
		u, v = v, u
	}
	return []int32{u, v}
}

func lexLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func sortCliqueFamilies(families ...[][]int32) {
	for _, f := range families {
		sort.Slice(f, func(i, j int) bool { return lexLess(f[i], f[j]) })
	}
}

func cliqueKey(c []int32) string {
	b := make([]byte, 0, 5*len(c))
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// AddNode grows the graph by one node and returns its identifier. The new
// node starts isolated, i.e. as its own singleton maximal clique — evolving
// social networks gain users as well as friendships.
func (t *Tracker) AddNode() int32 {
	v := int32(t.n)
	t.n++
	t.adj = append(t.adj, make(map[int32]struct{}))
	t.byNode = append(t.byNode, make(map[int64]struct{}))
	t.insertClique([]int32{v})
	return v
}
