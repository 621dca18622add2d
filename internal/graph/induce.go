package graph

import "slices"

// Inducer builds induced subgraphs of one graph from one reused scratch: a
// dense relabel array over the graph's nodes, which each call stamps for the
// selected nodes and un-stamps before returning, and a row buffer. A call
// costs O(Σ deg of the selected nodes) — never O(N) — however many calls
// share the scratch. An Inducer is not safe for concurrent use; the graph it
// reads is.
type Inducer struct {
	g *Graph
	// local[v] is 1 + the new ID of v while a call has v selected, else 0.
	local []int32
	// rows receives the filtered rows of one call, back to back, before they
	// are copied out at their exact size; it grows to the largest Σ deg seen.
	rows []int32
}

// NewInducer returns an Inducer over g.
func NewInducer(g *Graph) *Inducer {
	return &Inducer{g: g, local: make([]int32, g.N())}
}

// Induced returns the subgraph induced by nodes, relabelled to dense IDs
// 0..len(origIDs)-1 in the order given, together with origIDs such that
// origIDs[newID] is the node's identifier in the source graph. Duplicate
// entries in nodes are ignored after the first occurrence.
//
// The rows are written straight into CSR form, each source row read once. A
// row filtered in order keeps its order, and an ascending node list makes
// the relabelling monotone, so its rows come out sorted with no sort at all;
// only a list given out of order pays one slices.Sort per row.
//
//mce:hotpath per-block induced-subgraph build (BLOCKS, Algorithm 3)
func (in *Inducer) Induced(nodes []int32) (sub *Graph, origIDs []int32) {
	g, local := in.g, in.local
	origIDs = make([]int32, 0, len(nodes))
	ascending := true
	sumDeg := 0
	for _, v := range nodes {
		if local[v] != 0 {
			continue
		}
		if k := len(origIDs); k > 0 && v < origIDs[k-1] {
			ascending = false
		}
		origIDs = append(origIDs, v)
		local[v] = int32(len(origIDs))
		sumDeg += g.Degree(v)
	}

	if cap(in.rows) < sumDeg {
		in.rows = make([]int32, sumDeg)
	}
	rows := in.rows[:sumDeg]
	offsets := make([]int32, len(origIDs)+1)
	at := 0
	for nu, u := range origIDs {
		start := at
		for _, w := range g.Neighbors(u) {
			// Store unconditionally, advance only past a selected node
			// (l > 0 ⇔ sign bit of -l): whether a neighbour is selected is
			// a coin toss the branch predictor loses, and at never passes
			// the count of neighbours read, which sumDeg bounds.
			l := local[w]
			rows[at] = l - 1
			at += int(uint32(-l) >> 31)
		}
		if !ascending {
			slices.Sort(rows[start:at])
		}
		offsets[nu+1] = int32(at)
	}
	flat := make([]int32, at)
	copy(flat, rows)

	for _, v := range origIDs {
		local[v] = 0
	}
	return &Graph{offsets: offsets, flat: flat}, origIDs
}

// Induced returns the subgraph of g induced by nodes, relabelled to dense
// IDs 0..len(nodes)-1 in the order given, together with origIDs such that
// origIDs[newID] is the node's identifier in g. Duplicate entries in nodes
// are ignored after the first occurrence. It is the one-shot form of
// Inducer.Induced; a caller inducing many subgraphs of one graph holds an
// Inducer instead.
func Induced(g *Graph, nodes []int32) (sub *Graph, origIDs []int32) {
	return NewInducer(g).Induced(nodes)
}
