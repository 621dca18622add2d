// Package dtree implements the algorithm-selection decision tree of paper
// §4: given the five easy-to-compute block parameters (number of nodes,
// number of edges, density, degeneracy and d*), predict the
// data-structure/algorithm combination that will enumerate the block's
// maximal cliques fastest.
//
// Train fits a CART-style recursive-partitioning tree (the stand-in for the
// rpart routines [32] the paper used) on measured (features → best combo)
// samples; Published returns a reconstruction of the tree in the paper's
// Figure 3.
package dtree

import (
	"fmt"
	"sort"
	"strings"

	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

// Feature identifies one of the five block parameters.
type Feature uint8

// The decision-tree features, in the order of paper §4's list.
const (
	FeatNodes Feature = iota
	FeatEdges
	FeatDensity
	FeatDegeneracy
	FeatDStar
	numFeatures
)

// String names the feature as in the paper.
func (f Feature) String() string {
	switch f {
	case FeatNodes:
		return "#nodes"
	case FeatEdges:
		return "#edges"
	case FeatDensity:
		return "density"
	case FeatDegeneracy:
		return "degeneracy"
	case FeatDStar:
		return "d*"
	}
	return fmt.Sprintf("Feature(%d)", uint8(f))
}

// vector projects the Features struct into an indexable form.
func vector(f kcore.Features) [numFeatures]float64 {
	return [numFeatures]float64{
		float64(f.Nodes),
		float64(f.Edges),
		f.Density,
		float64(f.Degeneracy),
		float64(f.DStar),
	}
}

// Sample is one training observation: a block's parameters and the combo
// measured fastest on it.
type Sample struct {
	F    kcore.Features
	Best mcealg.Combo
}

// Tree is a binary decision tree over block features. The zero value is not
// usable; build one with Train or Published.
type Tree struct {
	root *node
}

// node is either a split (Left/Right non-nil) or a leaf (Leaf set).
type node struct {
	feat      Feature
	threshold float64 // go left when value > threshold
	left      *node
	right     *node
	leaf      bool
	combo     mcealg.Combo
	samples   int
}

// Options tunes training.
type Options struct {
	// MaxDepth bounds the tree height; 0 means the default of 5.
	MaxDepth int
	// MinLeaf is the minimum number of samples per leaf; 0 means 2.
	MinLeaf int
}

// Train fits a tree on samples by greedy Gini-impurity minimisation with
// binary numeric splits, the classic CART procedure. It panics on an empty
// sample set, which would leave nothing to predict.
func Train(samples []Sample, opts Options) *Tree {
	if len(samples) == 0 {
		panic("dtree: Train on empty sample set")
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 5
	}
	if opts.MinLeaf <= 0 {
		opts.MinLeaf = 2
	}
	return &Tree{root: build(samples, opts, 0)}
}

func build(samples []Sample, opts Options, depth int) *node {
	maj, pure := majority(samples)
	if pure || depth >= opts.MaxDepth || len(samples) < 2*opts.MinLeaf {
		return &node{leaf: true, combo: maj, samples: len(samples)}
	}
	feat, thr, ok := bestSplit(samples, opts.MinLeaf)
	if !ok {
		return &node{leaf: true, combo: maj, samples: len(samples)}
	}
	var left, right []Sample
	for _, s := range samples {
		if vector(s.F)[feat] > thr {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	return &node{
		feat:      feat,
		threshold: thr,
		left:      build(left, opts, depth+1),
		right:     build(right, opts, depth+1),
		samples:   len(samples),
	}
}

// majority returns the most frequent combo and whether the set is pure.
// Ties break towards the lexicographically smallest combo string so that
// training is deterministic.
func majority(samples []Sample) (mcealg.Combo, bool) {
	counts := map[mcealg.Combo]int{}
	for _, s := range samples {
		counts[s.Best]++
	}
	type kv struct {
		c mcealg.Combo
		n int
	}
	var kvs []kv
	for c, n := range counts {
		kvs = append(kvs, kv{c, n})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].c.String() < kvs[j].c.String()
	})
	return kvs[0].c, len(counts) == 1
}

// gini computes the Gini impurity of a label multiset given class counts.
func gini(counts map[mcealg.Combo]int, total int) float64 {
	if total == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range counts {
		p := float64(n) / float64(total)
		sum += p * p
	}
	return 1 - sum
}

// bestSplit scans every feature and every midpoint between consecutive
// distinct values, returning the split with minimum weighted child impurity.
func bestSplit(samples []Sample, minLeaf int) (Feature, float64, bool) {
	bestFeat, bestThr, bestScore, found := Feature(0), 0.0, 1e18, false
	n := len(samples)
	for f := Feature(0); f < numFeatures; f++ {
		vals := make([]float64, n)
		for i, s := range samples {
			vals[i] = vector(s.F)[f]
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return vals[order[i]] < vals[order[j]] })

		// Sweep thresholds; right = values ≤ thr, left = values > thr.
		rightCounts := map[mcealg.Combo]int{}
		leftCounts := map[mcealg.Combo]int{}
		for _, s := range samples {
			leftCounts[s.Best]++
		}
		moved := 0
		for idx := 0; idx < n-1; idx++ {
			i := order[idx]
			rightCounts[samples[i].Best]++
			leftCounts[samples[i].Best]--
			moved++
			if vals[order[idx]] == vals[order[idx+1]] {
				continue // not a valid cut point
			}
			if moved < minLeaf || n-moved < minLeaf {
				continue
			}
			thr := (vals[order[idx]] + vals[order[idx+1]]) / 2
			score := float64(moved)*gini(rightCounts, moved) +
				float64(n-moved)*gini(leftCounts, n-moved)
			if score < bestScore-1e-12 {
				bestScore, bestFeat, bestThr, found = score, f, thr, true
			}
		}
	}
	if !found {
		return 0, 0, false
	}
	// Reject splits that do not improve over the parent impurity at all.
	parentCounts := map[mcealg.Combo]int{}
	for _, s := range samples {
		parentCounts[s.Best]++
	}
	if bestScore >= float64(n)*gini(parentCounts, n)-1e-12 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// Predict returns the combo the tree selects for a block with features f —
// the paper's bestfit(B).
func (t *Tree) Predict(f kcore.Features) mcealg.Combo {
	v := vector(f)
	n := t.root
	for !n.leaf {
		if v[n.feat] > n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.combo
}

// PredictGraph returns Predict(kcore.Measure(g)) while measuring only what
// the path from the root asks for: #nodes, #edges and density are read off
// the graph, d* is computed if a node tests it, and the degeneracy — the one
// feature that costs a peeling of the whole block — is computed at most
// once, and not at all while every "degeneracy > t" on the path has
// kcore.DegeneracyBound(g) ≤ t, which already answers it false. s is the
// calling goroutine's measuring scratch.
//
//mce:hotpath per-block combo pick (worker-side select)
func (t *Tree) PredictGraph(g *graph.Graph, s *kcore.Scratch) mcealg.Combo {
	bound, degeneracy, dstar := -1, -1, -1
	n := t.root
	for !n.leaf {
		var value float64
		switch n.feat {
		case FeatNodes:
			value = float64(g.N())
		case FeatEdges:
			value = float64(g.M())
		case FeatDensity:
			value = g.Density()
		case FeatDegeneracy:
			if degeneracy < 0 {
				if bound < 0 {
					bound = kcore.DegeneracyBound(g)
				}
				if value = float64(bound); value <= n.threshold {
					break // degeneracy ≤ bound ≤ threshold: the bound decides
				}
				degeneracy = s.Degeneracy(g)
			}
			value = float64(degeneracy)
		case FeatDStar:
			if dstar < 0 {
				dstar = s.DStar(g)
			}
			value = float64(dstar)
		}
		if value > n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.combo
}

// Depth returns the height of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n.leaf {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return leaves(t.root) }

func leaves(n *node) int {
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

// String renders the tree in the indented style of the paper's Figure 3.
func (t *Tree) String() string {
	var b strings.Builder
	render(&b, t.root, 0)
	return b.String()
}

func render(b *strings.Builder, n *node, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		fmt.Fprintf(b, "%s%v\n", pad, n.combo)
		return
	}
	fmt.Fprintf(b, "%s%s > %g?\n", pad, n.feat, n.threshold)
	fmt.Fprintf(b, "%strue:\n", pad)
	render(b, n.left, indent+1)
	fmt.Fprintf(b, "%sfalse:\n", pad)
	render(b, n.right, indent+1)
}

// FeatureImportance scores each feature by the sample-weighted number of
// splits it drives (the rpart-style surrogate of impurity decrease when the
// training impurities are no longer available), normalised to sum to 1.
// It answers "what does the selector actually look at?" for trees like
// Figure 3's.
func (t *Tree) FeatureImportance() map[Feature]float64 {
	raw := map[Feature]float64{}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			return
		}
		weight := float64(n.samples)
		if weight == 0 {
			weight = 1 // hand-built trees (Published) carry no sample counts
		}
		raw[n.feat] += weight
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	total := 0.0
	for _, w := range raw {
		total += w
	}
	if total == 0 {
		return raw
	}
	for f := range raw {
		raw[f] /= total
	}
	return raw
}

// Published returns a reconstruction of the paper's Figure 3 tree:
//
//	degeneracy > 25?
//	  true:  #nodes < 8558?
//	           true:  degeneracy > 52? → [BitSets/Tomita] else [Matrix/BKPivot]
//	           false: [Matrix/XPivot]
//	  false: [Lists/XPivot]
//
// The figure in the proceedings PDF is partially garbled; this layout uses
// all four leaves shown and keeps each leaf consistent with Table 1 (Matrix
// combos win on small blocks, Lists/XPivot on sparse ones, BitSets/Tomita on
// the densest ones).
//
//mce:coldpath tree construction, once per run (the selector caches it)
func Published() *Tree {
	leaf := func(a mcealg.Algorithm, s mcealg.Structure) *node {
		return &node{leaf: true, combo: mcealg.Combo{Alg: a, Struct: s}}
	}
	return &Tree{root: &node{
		feat: FeatDegeneracy, threshold: 25,
		left: &node{
			// #nodes < 8558 ⇔ NOT (#nodes > 8557).
			feat: FeatNodes, threshold: 8557,
			left: leaf(mcealg.XPivot, mcealg.Matrix),
			right: &node{
				feat:      FeatDegeneracy,
				threshold: 52,
				left:      leaf(mcealg.Tomita, mcealg.BitSets),
				right:     leaf(mcealg.BKPivot, mcealg.Matrix),
			},
		},
		right: leaf(mcealg.XPivot, mcealg.Lists),
	}}
}

// SafePredict wraps Predict with the quadratic-store guard: a Matrix or
// BitSets pick for a block of more than mcealg.MatrixMaxNodes nodes degrades
// to the same algorithm over Lists (mcealg.Combo.Bounded).
func SafePredict(t *Tree, f kcore.Features) mcealg.Combo {
	return t.Predict(f).Bounded(f.Nodes)
}

// SafePredictGraph is SafePredict(t, kcore.Measure(g)) by PredictGraph.
//
//mce:hotpath per-block combo pick (worker-side select)
func SafePredictGraph(t *Tree, g *graph.Graph, s *kcore.Scratch) mcealg.Combo {
	return t.PredictGraph(g, s).Bounded(g.N())
}
