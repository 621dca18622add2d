// Package mcealg implements the maximal clique enumeration algorithms the
// paper assembles into its per-block framework (§4): BKPivot (Bron–Kerbosch
// with a max-degree pivot [6]), Tomita (pivot maximising |N(u) ∩ P| [34]),
// Eppstein (degeneracy-ordered outer loop [17]) and XPivot (the paper's own
// variant preferring pivots from the already-visited set), each runnable over
// three adjacency representations: adjacency Matrix, adjacency Lists and
// BitSets. The 4×3 grid matches Table 1 of the paper.
//
// All algorithms support the subproblem form MCE(R, P, X) needed by
// BLOCK-ANALYSIS (Algorithm 4): enumerate the maximal cliques that contain
// every node of R, may use nodes of P, and must exclude — and not be
// extensible by — nodes of X.
package mcealg

import (
	"fmt"
	"runtime"

	"mce/internal/bitset"
	"mce/internal/family"
	"mce/internal/graph"
)

// Algorithm selects one of the four MCE search strategies.
type Algorithm uint8

// The four algorithms of the paper's framework.
const (
	BKPivot Algorithm = iota
	Tomita
	Eppstein
	XPivot
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BKPivot:
		return "BKPivot"
	case Tomita:
		return "Tomita"
	case Eppstein:
		return "Eppstein"
	case XPivot:
		return "XPivot"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// Structure selects the adjacency representation.
type Structure uint8

// The three data structures of the paper's framework, plus BitSetsParallel —
// the same recursion handing subtrees to the intra-block work-stealing pool
// (parallel.go). Matrix and BitSets are one packed bit-matrix (kernel.go);
// they stay two names because the paper's tree, the telemetry cells and the
// wire distinguish them.
const (
	Matrix Structure = iota
	Lists
	BitSets
	BitSetsParallel
)

// String returns the paper's name for the structure.
func (s Structure) String() string {
	switch s {
	case Matrix:
		return "Matrix"
	case Lists:
		return "Lists"
	case BitSets:
		return "BitSets"
	case BitSetsParallel:
		return "BitSetsParallel"
	}
	return fmt.Sprintf("Structure(%d)", uint8(s))
}

// Combo is a data-structure/algorithm pair, the unit the decision tree
// selects among (paper Figure 3, Table 1).
type Combo struct {
	Alg    Algorithm
	Struct Structure
}

// NumCombos is the size of the framework's combination grid: the paper's 4×3
// Table 1 plus the four BitSetsParallel combos of the intra-block parallel
// mode. AllCombos still returns only the paper's twelve; the extra slots
// exist so Index and the per-combo telemetry cells cover the parallel mode.
const NumCombos = 16

// Index maps the combo onto 0..NumCombos-1 — structures outer, algorithms
// inner, matching the AllCombos order — for per-combo telemetry slots.
func (c Combo) Index() int { return int(c.Struct)*4 + int(c.Alg) }

// ComboAt is Index's inverse.
func ComboAt(i int) Combo { return Combo{Alg: Algorithm(i % 4), Struct: Structure(i / 4)} }

// String renders the combo in the paper's "[Structure / Algorithm]" style.
func (c Combo) String() string {
	return fmt.Sprintf("[%s/%s]", c.Struct, c.Alg)
}

// comboNames caches every combo's String so Label never allocates — the
// telemetry hot paths record a label per block.
var comboNames = func() [NumCombos]string {
	var names [NumCombos]string
	for _, s := range []Structure{Matrix, Lists, BitSets, BitSetsParallel} {
		for _, a := range []Algorithm{BKPivot, Tomita, Eppstein, XPivot} {
			c := Combo{Alg: a, Struct: s}
			names[c.Index()] = c.String()
		}
	}
	return names
}()

// Label is String without the fmt allocation, for telemetry hot paths. It
// returns "" for a combo outside the 12 valid combinations.
func (c Combo) Label() string {
	if i := c.Index(); i >= 0 && i < NumCombos {
		return comboNames[i]
	}
	return ""
}

// AllCombos returns the paper's 12 data-structure/algorithm combinations in
// a stable order (structures outer, algorithms inner). BitSetsParallel is
// excluded: it is an execution mode of the BitSets structure, not a Table 1
// contestant, so corpus races and the decision tree stay on the paper grid.
func AllCombos() []Combo {
	var cs []Combo
	for _, s := range []Structure{Matrix, Lists, BitSets} {
		for _, a := range []Algorithm{BKPivot, Tomita, Eppstein, XPivot} {
			cs = append(cs, Combo{Alg: a, Struct: s})
		}
	}
	return cs
}

// MatrixMaxNodes bounds the graphs a quadratic store is built for: the
// packed rows behind Matrix and BitSets take n²/8 bytes, which past this
// many nodes would exhaust memory for no benefit, since both only win on
// small dense blocks (Table 1).
const MatrixMaxNodes = 1 << 14

// Bounded returns the combo to run on a graph of n nodes: c itself, or —
// when c's structure is a quadratic store and n exceeds MatrixMaxNodes —
// the same algorithm over Lists. The recursion tree does not depend on the
// structure, so the output is the same either way.
func (c Combo) Bounded(n int) Combo {
	if c.Struct != Lists && n > MatrixMaxNodes {
		c.Struct = Lists
	}
	return c
}

// Enumerate finds every maximal clique of g using the given combo and calls
// emit once per clique with the member IDs in ascending order. The slice
// passed to emit is reused between calls; copy it to retain. A
// BitSetsParallel combo runs the work-stealing enumerator with GOMAXPROCS
// workers; use EnumeratePar to pick the width explicitly.
func Enumerate(g *graph.Graph, c Combo, emit func(clique []int32)) error {
	return EnumeratePar(g, c, Par{}, emit)
}

// EnumeratePar is Enumerate with explicit intra-enumeration parallelism (see
// Par). The cliques emitted — and their order — are identical to Enumerate's
// for every worker count.
func EnumeratePar(g *graph.Graph, c Combo, par Par, emit func(clique []int32)) error {
	n := g.N()
	if n == 0 {
		return nil
	}
	r, err := NewRunnerPar(g, c, par)
	if err != nil {
		return err
	}
	w := (n + 63) / 64
	px := make([]uint64, 2*w)
	for v := 0; v < n; v++ {
		px[v>>6] |= 1 << (uint(v) & 63)
	}
	r.SubproblemWindows(nil, px[:w], px[w:], emit)
	return nil
}

// EnumerateSubproblem runs MCE(R, P, X) on g: it emits every clique K with
// R ⊆ K ⊆ R ∪ P, K ∩ X = ∅, such that no node of P ∪ X is adjacent to all of
// K. R must be a clique whose nodes are all adjacent to every node of P and X
// (the caller typically intersects P and X with the common neighbourhood of
// R, as Algorithm 4 does). P and X are read, not modified.
func EnumerateSubproblem(g *graph.Graph, c Combo, R []int32, P, X *bitset.Set, emit func(clique []int32)) error {
	r, err := NewRunner(g, c)
	if err != nil {
		return err
	}
	r.Subproblem(R, P, X, emit)
	return nil
}

// Runner holds the adjacency representation for one graph so that many
// subproblems (e.g. one per kernel node of a block, as in Algorithm 4) can
// be solved without rebuilding it, and the recursion's scratch memory, so
// that a Runner Reset onto the next graph allocates nothing once warm. The
// zero value is ready for Reset.
type Runner struct {
	combo Combo
	par   Par
	w     int
	// k is the enumerator Reset picked for the graph: the array window of
	// its width for a packed store of at most maxFixedWords words run
	// sequentially, the slice window otherwise. Each is made on first use
	// and keeps its own memory, so a runner moving between widths stays
	// warm on all of them.
	k  kernel
	e1 *enumerator[[1]uint64]
	e2 *enumerator[[2]uint64]
	e3 *enumerator[[3]uint64]
	e4 *enumerator[[4]uint64]
	es *enumerator[[]uint64]
}

// use returns *e, made on first use.
func use[W window](e **enumerator[W]) *enumerator[W] {
	if *e == nil {
		*e = new(enumerator[W])
	}
	return *e
}

// kernel is what a Runner asks of its enumerator, whatever the window.
type kernel interface {
	reset(g *graph.Graph, packed bool)
	run(alg Algorithm, R []int32, P, X []uint64, s Sink)
	counts() (nodes, pivots int64)
}

func (e *enumerator[W]) counts() (nodes, pivots int64) { return e.nodes, e.pivots }

// Sink is where a subproblem's cliques go, each with its members in
// ascending order. With Out set, a clique is appended to Out, translated
// through Orig when Orig is set, in the one pass that copies it into the
// arena. Otherwise Emit receives it — translated into a buffer the runner
// reuses, when Orig is set — and must copy it to retain it. Orig maps the
// graph's node IDs to the caller's, ascending, as a block's Orig does, so a
// translated clique is still ascending.
type Sink struct {
	Out  *family.Family
	Orig []int32
	Emit func(clique []int32)
}

// room returns the empty slice a clique of k members is appended to: a
// slot of Out's arena, which holds exactly k, or buf for Emit.
func (s *Sink) room(k int, buf []int32) []int32 {
	if s.Out != nil {
		return s.Out.Extend(k)[:0]
	}
	return buf[:0]
}

// deliver hands Emit the clique appended to room's slice, and returns what
// buf is to be: the clique, when it was built there. One in Out's arena is
// already where it goes.
func (s *Sink) deliver(clique, buf []int32) []int32 {
	if s.Out != nil {
		return buf
	}
	s.Emit(clique)
	return clique
}

// NewRunner prepares the combo's adjacency structure for g. A
// BitSetsParallel combo gets GOMAXPROCS intra-enumeration workers; use
// NewRunnerPar to pick the width explicitly.
func NewRunner(g *graph.Graph, c Combo) (*Runner, error) {
	return NewRunnerPar(g, c, Par{})
}

// NewRunnerPar is NewRunner with explicit intra-enumeration parallelism.
// par.Workers ≤ 1 always runs the sequential recursion, whatever the combo.
func NewRunnerPar(g *graph.Graph, c Combo, par Par) (*Runner, error) {
	r := &Runner{}
	if err := r.Reset(g, c, par); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-targets the runner at g and c, reusing its memory, and zeroes
// Counts. It refuses a quadratic store — Matrix, BitSets or BitSetsParallel
// — on more than MatrixMaxNodes nodes rather than allocate n²/8 bytes;
// callers that pick combos go through Combo.Bounded and never see that.
// On an error Counts reads zero and the runner must be Reset again before
// use.
//
// The enumerator is picked here by the graph's width: a packed store of 1
// to maxFixedWords words that runs sequentially gets the recursion stenciled
// for that array window, anything else the slice window's.
//
//mce:coldpath per-block adjacency construction
func (r *Runner) Reset(g *graph.Graph, c Combo, par Par) error {
	r.k = nil
	switch c.Alg {
	case BKPivot, Tomita, Eppstein, XPivot:
	default:
		return fmt.Errorf("mcealg: unknown algorithm %v", c.Alg)
	}
	switch c.Struct {
	case Lists:
	case Matrix, BitSets, BitSetsParallel:
		if g.N() > MatrixMaxNodes {
			return fmt.Errorf("mcealg: %d nodes exceed the %v structure limit of %d (see Combo.Bounded)", g.N(), c.Struct, MatrixMaxNodes)
		}
	default:
		return fmt.Errorf("mcealg: unknown structure %v", c.Struct)
	}
	if par.Workers == 0 && c.Struct == BitSetsParallel {
		par.Workers = runtime.GOMAXPROCS(0)
	}
	r.combo, r.par, r.w = c, par, (g.N()+63)/64
	packed := c.Struct != Lists
	switch {
	case !packed || par.Workers > 1 || r.w > maxFixedWords:
		r.k = use(&r.es)
	case r.w == 1:
		r.k = use(&r.e1)
	case r.w == 2:
		r.k = use(&r.e2)
	case r.w == 3:
		r.k = use(&r.e3)
	case r.w == 4:
		r.k = use(&r.e4)
	default: // the empty graph
		r.k = use(&r.es)
	}
	r.k.reset(g, packed)
	return nil
}

// Subproblem runs MCE(R, P, X) with the runner's combo; see
// EnumerateSubproblem for the semantics. P and X must have the graph's
// node count as capacity.
func (r *Runner) Subproblem(R []int32, P, X *bitset.Set, emit func(clique []int32)) {
	r.SubproblemWindows(R, P.Words(), X.Words(), emit)
}

// SubproblemWindows is Subproblem with P and X given as windows of
// ⌈n/64⌉ words, bit v of word v/64 standing for node v. When the runner was
// built with Par.Workers > 1 and the candidate set is large enough, the
// subproblem fans out over the work-stealing pool; the emitted cliques and
// their order are identical to the sequential path either way.
func (r *Runner) SubproblemWindows(R []int32, P, X []uint64, emit func(clique []int32)) {
	r.SubproblemTo(R, P, X, Sink{Emit: emit})
}

// SubproblemTo is SubproblemWindows into a Sink.
func (r *Runner) SubproblemTo(R []int32, P, X []uint64, s Sink) {
	if len(P) != r.w || len(X) != r.w {
		badWindows(len(P), len(X), r.w)
	}
	if r.par.Workers > 1 && count(P) >= r.par.minCandidates() {
		r.parallelSubproblem(R, P, X, s)
		return
	}
	r.k.run(r.combo.Alg, R, P, X, s)
}

// badWindows reports a caller bug: candidate sets sized for another graph
// would be silently truncated into frame 0.
//
//mce:coldpath panic formatting
//go:noinline
func badWindows(p, x, w int) {
	panic(fmt.Sprintf("mcealg: P and X of %d and %d words on a graph of %d", p, x, w))
}

// Counts reports how many MCE recursion-tree nodes were expanded and how
// many pivot selections were made across every subproblem run on this
// runner since its last Reset — the per-block work measures the telemetry
// layer aggregates (the load-imbalance signal of the shared-memory parallel
// MCE literature).
func (r *Runner) Counts() (recursionNodes, pivotSelections int64) {
	if r.k == nil {
		return 0, 0
	}
	return r.k.counts()
}

// Collect runs Enumerate and gathers the cliques into a slice of ascending
// node-ID slices.
func Collect(g *graph.Graph, c Combo) ([][]int32, error) {
	var out [][]int32
	err := Enumerate(g, c, func(k []int32) {
		cp := make([]int32, len(k))
		copy(cp, k)
		out = append(out, cp)
	})
	return out, err
}

// Count runs Enumerate and returns only the number of maximal cliques.
func Count(g *graph.Graph, c Combo) (int, error) {
	n := 0
	err := Enumerate(g, c, func([]int32) { n++ })
	return n, err
}
