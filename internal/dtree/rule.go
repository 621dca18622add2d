package dtree

import (
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

// Rule is a level's combo-selection rule as a value: whatever analyses a
// block — a local executor's worker or a remote cluster worker, which is
// sent the rule with every task — picks the same combo from the same
// induced subgraph. The zero value asks the published tree.
type Rule struct {
	// Mode says where the combo comes from; see the Rule* constants.
	Mode Mode
	// Combo is the combo of a RuleFixed or RuleAsIs rule.
	Combo mcealg.Combo
	// Parallel upgrades a BitSets pick on a block of at least
	// ParallelMinNodes nodes to BitSetsParallel. The upgrade never changes
	// the emitted cliques or their order: both structures share the same
	// rows and the same pivot arithmetic, and the parallel enumerator merges
	// back into depth-first order.
	Parallel bool
}

// Mode is a Rule's source of combos.
type Mode uint8

const (
	// RuleTree picks with the published tree (Figure 3), bounded to the
	// block's size (SafePredictGraph).
	RuleTree Mode = iota
	// RuleFixed picks Combo for every block, bounded to the block's size
	// (mcealg.Combo.Bounded): the fixed-combination baselines of Figure 4.
	RuleFixed
	// RuleAsIs picks Combo for every block as it is, even where its store
	// does not fit, which the analysis then refuses.
	RuleAsIs
)

// ParallelMinNodes is the smallest block worth the intra-block pool: below
// it the pool-spawn and merge overhead beats any fan-out gain, so a Parallel
// rule leaves small blocks on the sequential BitSets path.
const ParallelMinNodes = 128

// published is the tree every RuleTree pick asks; it is never written.
var published = Published()

// Pick returns the combo for a block whose induced subgraph is g; s is the
// calling goroutine's measuring scratch.
//
//mce:hotpath per-block combo pick (worker-side select)
func (r Rule) Pick(g *graph.Graph, s *kcore.Scratch) mcealg.Combo {
	var c mcealg.Combo
	switch r.Mode {
	case RuleTree:
		c = SafePredictGraph(published, g, s)
	case RuleFixed:
		c = r.Combo.Bounded(g.N())
	default:
		c = r.Combo
	}
	if r.Parallel && c.Struct == mcealg.BitSets && g.N() >= ParallelMinNodes {
		c.Struct = mcealg.BitSetsParallel
	}
	return c
}
