package graph

import "slices"

// Inducer builds induced subgraphs of one graph from one reused scratch: a
// dense relabel array over the graph's nodes, which each call stamps for the
// selected nodes and un-stamps before returning, and the buffers the
// subgraph is written into. A call costs O(Σ deg of the selected nodes) —
// never O(N) — however many calls share the scratch. An Inducer is not safe
// for concurrent use; the graph it reads is.
type Inducer struct {
	g *Graph
	// local[v] is 1 + the new ID of v while a call has v selected, else 0.
	local []int32
	// orig, offsets and rows hold the subgraph of the latest call; each
	// grows to the largest one seen. sub is the Graph over them.
	orig, offsets, rows []int32
	sub                 Graph
}

// NewInducer returns an Inducer over g.
func NewInducer(g *Graph) *Inducer {
	return &Inducer{g: g, local: make([]int32, g.N())}
}

// Scratch is Induced without the copies: sub and origIDs live in the
// inducer's own buffers and are valid until the next call on it, so a
// caller that is done with one subgraph before it asks for the next — a
// worker analysing block after block — induces without allocating. An
// ascending, duplicate-free node list is not even copied: origIDs is nodes.
//
// The rows are written straight into CSR form, each source row read once. A
// row filtered in order keeps its order, and an ascending node list makes
// the relabelling monotone, so its rows come out sorted with no sort at all;
// only a list given out of order pays one slices.Sort per row.
//
//mce:hotpath per-block induced-subgraph build (worker-side materialise)
func (in *Inducer) Scratch(nodes []int32) (sub *Graph, origIDs []int32) {
	g, local := in.g, in.local
	ascending := true // strictly: ascending and duplicate-free
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			ascending = false
			break
		}
	}
	sumDeg := 0
	if ascending {
		origIDs = nodes
		for i, v := range nodes {
			local[v] = int32(i + 1)
			sumDeg += g.Degree(v)
		}
	} else {
		origIDs = in.orig[:0]
		ascending = true
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
		in.orig = origIDs
	}

	if cap(in.rows) < sumDeg {
		in.rows = make([]int32, sumDeg)
	}
	if cap(in.offsets) < len(origIDs)+1 {
		in.offsets = make([]int32, len(origIDs)+1)
	}
	rows, offsets := in.rows[:sumDeg], in.offsets[:len(origIDs)+1]
	offsets[0] = 0
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

	for _, v := range origIDs {
		local[v] = 0
	}
	in.sub = Graph{offsets: offsets, flat: rows[:at]}
	return &in.sub, origIDs
}

// Induced returns the subgraph induced by nodes, relabelled to dense IDs
// 0..len(origIDs)-1 in the order given, together with origIDs such that
// origIDs[newID] is the node's identifier in the source graph. Duplicate
// entries in nodes are ignored after the first occurrence. Both results are
// exact-size copies the caller owns; Scratch is the form that keeps them in
// the inducer.
func (in *Inducer) Induced(nodes []int32) (sub *Graph, origIDs []int32) {
	sub, origIDs = in.Scratch(nodes)
	return sub.Clone(), slices.Clone(origIDs)
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
