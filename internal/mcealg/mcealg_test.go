package mcealg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/bitset"
	"mce/internal/gen"
	"mce/internal/graph"
)

// key canonicalises a clique for set comparison.
func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func cliqueSet(cs [][]int32) map[string]bool {
	m := make(map[string]bool, len(cs))
	for _, c := range cs {
		m[key(c)] = true
	}
	return m
}

func assertSameCliques(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	gs, ws := cliqueSet(got), cliqueSet(want)
	if len(got) != len(gs) {
		t.Fatalf("%s: emitted %d cliques with duplicates (distinct %d)", what, len(got), len(gs))
	}
	for k := range ws {
		if !gs[k] {
			t.Fatalf("%s: clique {%s} missing", what, k)
		}
	}
	for k := range gs {
		if !ws[k] {
			t.Fatalf("%s: spurious clique {%s}", what, k)
		}
	}
}

func TestComboStrings(t *testing.T) {
	c := Combo{Alg: Tomita, Struct: BitSets}
	if c.String() != "[BitSets/Tomita]" {
		t.Fatalf("String = %q", c.String())
	}
	if Algorithm(99).String() == "" || Structure(99).String() == "" {
		t.Fatalf("unknown enums must render")
	}
}

func TestAllCombos(t *testing.T) {
	cs := AllCombos()
	if len(cs) != 12 {
		t.Fatalf("len = %d, want 12", len(cs))
	}
	seen := map[Combo]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[c] = true
	}
}

func TestEmptyGraphAllCombos(t *testing.T) {
	g := graph.Empty(0)
	for _, c := range AllCombos() {
		got, err := Collect(g, c)
		if err != nil || len(got) != 0 {
			t.Fatalf("%v on empty graph: %v cliques, err %v", c, got, err)
		}
	}
}

func TestIsolatedNodes(t *testing.T) {
	// Each isolated node is itself a maximal clique.
	g := graph.Empty(4)
	for _, c := range AllCombos() {
		got, err := Collect(g, c)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int32{{0}, {1}, {2}, {3}}
		assertSameCliques(t, c.String(), got, want)
	}
}

func TestTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3: maximal cliques {0,1,2} and {2,3}.
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	want := [][]int32{{0, 1, 2}, {2, 3}}
	for _, c := range AllCombos() {
		got, err := Collect(g, c)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCliques(t, c.String(), got, want)
	}
}

func TestCompleteGraphSingleClique(t *testing.T) {
	g := graph.Complete(7)
	for _, c := range AllCombos() {
		got, err := Collect(g, c)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCliques(t, c.String(), got, [][]int32{{0, 1, 2, 3, 4, 5, 6}})
	}
}

func TestPaperFigure1Graph(t *testing.T) {
	// The network of paper Figure 1: nodes A..Z mapped to 0..15.
	// A=0 J=1 H=2 D=3 E=4 F=5 G=6 S=7 X=8 L=9 Z=10 R=11 P=12 Y=13 W=14 U=15.
	// Edges transcribed from the figure's description in §2: the cliques
	// {A,J,H}, {H,F,D}, {D,S,E} exist; L-S, G-E, U-S, X-E, R-D, P-D, Z-D,
	// Y-E, W-S complete the picture.
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // A-J-H triangle
		{U: 2, V: 5}, {U: 2, V: 3}, {U: 5, V: 3}, // H-F-D triangle
		{U: 3, V: 7}, {U: 3, V: 4}, {U: 7, V: 4}, // D-S-E triangle
		{U: 9, V: 7},  // L-S
		{U: 6, V: 4},  // G-E
		{U: 15, V: 7}, // U-S
		{U: 8, V: 4},  // X-E
		{U: 11, V: 3}, // R-D
		{U: 12, V: 3}, // P-D
		{U: 10, V: 3}, // Z-D
		{U: 13, V: 4}, // Y-E
		{U: 14, V: 7}, // W-S
	}
	g := fromEdges(16, edges)
	want := ReferenceCollect(g)
	// Sanity: the three named cliques are present.
	ws := cliqueSet(want)
	for _, k := range []string{"0,1,2", "2,3,5", "3,4,7"} {
		if !ws[k] {
			t.Fatalf("reference misses paper clique {%s}", k)
		}
	}
	for _, c := range AllCombos() {
		got, err := Collect(g, c)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCliques(t, c.String(), got, want)
	}
}

func TestMoonMoserCount(t *testing.T) {
	// The Moon–Moser graph K_{3,3,3...}: complete multipartite with k parts
	// of size 3 has exactly 3^k maximal cliques — the worst case Tomita's
	// bound is tight on. Use k=4 → 81 cliques.
	k := 4
	n := 3 * k
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/3 != v/3 {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	g := b.Build()
	for _, c := range AllCombos() {
		cnt, err := Count(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if cnt != 81 {
			t.Fatalf("%v: count = %d, want 81", c, cnt)
		}
	}
}

func TestEmitBufferIsReused(t *testing.T) {
	// The doc promises the emit slice is reused; callers must copy. Verify
	// cliques stay correct when the caller copies, and that mutation of the
	// emitted slice does not corrupt enumeration.
	g := fromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 2, V: 4}})
	var got [][]int32
	err := Enumerate(g, Combo{Alg: Tomita, Struct: BitSets}, func(k []int32) {
		cp := make([]int32, len(k))
		copy(cp, k)
		got = append(got, cp)
		for i := range k {
			k[i] = -1 // hostile caller
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCliques(t, "reuse", got, [][]int32{{0, 1}, {2, 3, 4}})
}

func TestSubproblemSemantics(t *testing.T) {
	// Square 0-1-2-3-0 with diagonal 0-2: cliques {0,1,2}, {0,2,3}.
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2}})
	for _, c := range AllCombos() {
		// R={0}, P=N(0), X=∅: all maximal cliques containing node 0.
		P := bitset.FromSlice(4, []int32{1, 2, 3})
		X := bitset.New(4)
		var got [][]int32
		err := EnumerateSubproblem(g, c, []int32{0}, P, X, func(k []int32) {
			cp := make([]int32, len(k))
			copy(cp, k)
			got = append(got, cp)
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameCliques(t, c.String()+" R={0}", got, [][]int32{{0, 1, 2}, {0, 2, 3}})

		// R={0}, P=N(0)\{1}, X={1}: cliques containing 0, avoiding 1,
		// not extensible by 1 → only {0,2,3} ({0,2} extends by 1 and 3).
		P = bitset.FromSlice(4, []int32{2, 3})
		X = bitset.FromSlice(4, []int32{1})
		got = nil
		err = EnumerateSubproblem(g, c, []int32{0}, P, X, func(k []int32) {
			cp := make([]int32, len(k))
			copy(cp, k)
			got = append(got, cp)
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameCliques(t, c.String()+" X={1}", got, [][]int32{{0, 2, 3}})
	}
}

func TestSubproblemEmptyPNonEmptyX(t *testing.T) {
	// R maximal only if X empty: with X non-empty nothing is emitted.
	g := graph.Complete(3)
	for _, c := range AllCombos() {
		got := 0
		err := EnumerateSubproblem(g, c, []int32{0, 1}, bitset.New(3),
			bitset.FromSlice(3, []int32{2}), func([]int32) { got++ })
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("%v: emitted %d cliques, want 0", c, got)
		}
	}
}

func TestMatrixTooLarge(t *testing.T) {
	// One packed store, one guard: every quadratic structure is refused
	// above the bound, and the error names the structure asked for.
	g := graph.Empty(MatrixMaxNodes + 1)
	for _, s := range []Structure{Matrix, BitSets, BitSetsParallel} {
		err := Enumerate(g, Combo{Alg: BKPivot, Struct: s}, func([]int32) {})
		if err == nil || !strings.Contains(err.Error(), s.String()) {
			t.Fatalf("oversized %v store: err = %v", s, err)
		}
	}
	if err := Enumerate(g, Combo{Alg: BKPivot, Struct: Lists}, func([]int32) {}); err != nil {
		t.Fatalf("Lists refused above the bound: %v", err)
	}
}

func TestReferenceAgainstBruteForce(t *testing.T) {
	// Cross-check the oracle itself against subset brute force on tiny
	// random graphs.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(9) + 1
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		g := b.Build()
		want := bruteForceMaximalCliques(g)
		got := ReferenceCollect(g)
		assertSameCliques(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// bruteForceMaximalCliques enumerates all subsets; only for n <= ~16.
func bruteForceMaximalCliques(g *graph.Graph) [][]int32 {
	n := g.N()
	isClique := func(mask uint32) bool {
		for u := 0; u < n; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			for v := u + 1; v < n; v++ {
				if mask&(1<<v) != 0 && !g.HasEdge(int32(u), int32(v)) {
					return false
				}
			}
		}
		return true
	}
	var cliques []uint32
	for mask := uint32(1); mask < 1<<n; mask++ {
		if isClique(mask) {
			cliques = append(cliques, mask)
		}
	}
	var out [][]int32
	for _, m := range cliques {
		maximal := true
		for _, m2 := range cliques {
			if m != m2 && m&m2 == m {
				maximal = false
				break
			}
		}
		if maximal {
			var c []int32
			for v := 0; v < n; v++ {
				if m&(1<<v) != 0 {
					c = append(c, int32(v))
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// Property: all 12 combos agree with the reference oracle on random sparse
// and dense graphs.
func TestQuickAllCombosMatchReference(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(26) + 2
		p := 0.15
		if dense {
			p = 0.6
		}
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		g := b.Build()
		want := cliqueSet(ReferenceCollect(g))
		for _, c := range AllCombos() {
			got, err := Collect(g, c)
			if err != nil {
				return false
			}
			gs := cliqueSet(got)
			if len(gs) != len(want) || len(got) != len(gs) {
				return false
			}
			for k := range want {
				if !gs[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every emitted set is a clique and is maximal (checked directly
// against the graph, independent of any enumerator).
func TestQuickEmittedAreMaximalCliques(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng.Intn(30)+3, 0.3, seed)
		for _, c := range AllCombos() {
			ok := true
			err := Enumerate(g, c, func(k []int32) {
				for i := range k {
					for j := i + 1; j < len(k); j++ {
						if !g.HasEdge(k[i], k[j]) {
							ok = false
						}
					}
				}
				// Maximality: no outside node adjacent to all members.
				for v := int32(0); v < int32(g.N()); v++ {
					inClique := false
					adjAll := true
					for _, u := range k {
						if u == v {
							inClique = true
							break
						}
						if !g.HasEdge(u, v) {
							adjAll = false
							break
						}
					}
					if !inClique && adjAll {
						ok = false
					}
				}
			})
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFreeGraphAllCombosAgree(t *testing.T) {
	// A Holme–Kim social-style graph: the 12 combos must produce the same
	// clique count.
	g := gen.HolmeKim(300, 4, 0.7, 21)
	want := -1
	for _, c := range AllCombos() {
		got, err := Count(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			want = got
		} else if got != want {
			t.Fatalf("%v: count = %d, others had %d", c, got, want)
		}
	}
	if want < g.N()/10 {
		t.Fatalf("suspiciously few cliques: %d", want)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.2, 9)
	a, err := Collect(g, Combo{Alg: Eppstein, Struct: Lists})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(g, Combo{Alg: Eppstein, Struct: Lists})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if key(a[i]) != key(b[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func sortCliques(cs [][]int32) {
	sort.Slice(cs, func(i, j int) bool { return key(cs[i]) < key(cs[j]) })
}

func TestCollectMatchesEnumerate(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.25, 2)
	collected, err := Collect(g, Combo{Alg: Tomita, Struct: Lists})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := Count(g, Combo{Alg: Tomita, Struct: Lists})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(collected) {
		t.Fatalf("Count = %d, Collect = %d", cnt, len(collected))
	}
	sortCliques(collected)
}

func benchGraph() *graph.Graph {
	return gen.HolmeKim(800, 6, 0.7, 33)
}

func BenchmarkCombos(b *testing.B) {
	g := benchGraph()
	for _, c := range AllCombos() {
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Count(g, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fromEdges builds a graph with n nodes from an edge list.
func fromEdges(n int, edges []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
