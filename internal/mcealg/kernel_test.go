package mcealg

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"mce/internal/bitset"
	"mce/internal/gen"
	"mce/internal/graph"
)

// collectSubproblem runs MCE(R, P, X) with c and returns the emitted
// sequence.
func collectSubproblem(t testing.TB, g *graph.Graph, c Combo, R, P, X []int32) [][]int32 {
	t.Helper()
	var got [][]int32
	err := EnumerateSubproblem(g, c, R, bitset.FromSlice(g.N(), P), bitset.FromSlice(g.N(), X), func(k []int32) {
		got = append(got, slices.Clone(k))
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWordBoundaries runs every combo on graphs whose node count sits on,
// just below and just above a multiple of the 64-bit window word, as
// Algorithm 4 does: a kernel node k, X the visited neighbours of k, P the
// rest of N(k) — with kernel and visited nodes on the last bit of one word
// and the first of the next. The oracle is the pivot-free reference: the
// maximal cliques of g through k that avoid X.
func TestWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193} {
		g := gen.ErdosRenyi(n, 0.25, int64(n))
		ref := ReferenceCollect(g)
		var marked []int32 // the kernel and visited candidates
		for _, v := range []int32{0, 63, 64, 127, 128, int32(n - 1)} {
			if int(v) < n && !slices.Contains(marked, v) {
				marked = append(marked, v)
			}
		}
		for _, c := range AllCombos() {
			whole, err := Collect(g, c)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCliques(t, fmt.Sprintf("n=%d %v whole graph", n, c), whole, ref)
			for _, k := range marked {
				var P, X []int32
				for _, u := range g.Neighbors(k) {
					if slices.Contains(marked, u) {
						X = append(X, u)
					} else {
						P = append(P, u)
					}
				}
				var want [][]int32
				for _, K := range ref {
					if slices.Contains(K, k) && !slices.ContainsFunc(K, func(v int32) bool { return slices.Contains(X, v) }) {
						want = append(want, K)
					}
				}
				got := collectSubproblem(t, g, c, []int32{k}, P, X)
				assertSameCliques(t, fmt.Sprintf("n=%d %v kernel %d visited %v", n, c, k, X), got, want)
			}
		}
	}
}

// Fuzz geometry: twelve active nodes, everything else isolated, on a graph
// whose node count the input picks from fuzzSizes — one, two, three, four
// and five words and the counts either side of each boundary, so that every
// window type the kernel is instantiated with, and the slice body past
// them, meets the brute force. The active nodes straddle the graph's last
// word boundary where it has one. Bit i of a mask stands for active node i.
const fuzzActive = 12

var fuzzSizes = []int{12, 64, 65, 72, 128, 129, 192, 193, 256, 257, 320}

// fuzzBase is the first active node on a graph of n nodes.
func fuzzBase(n int) int {
	base := max(0, (n-1)/64*64-fuzzActive/2)
	return min(base, n-fuzzActive)
}

// FuzzSubproblem checks every combo's MCE(R, P, X) against a brute force
// over the subsets of P, on a graph and sets drawn from the input: size
// picks the node count, edges is read as byte pairs of active-node
// indices, and the three masks are trimmed to a valid instance (R a
// clique, P and X disjoint, inside the common neighbourhood of R). The
// edge list is read up to the complete graph's length, so memory is
// bounded whatever the input. Within one algorithm the three structures
// and the work-stealing mode must also agree on the emission order.
func FuzzSubproblem(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3}, uint16(0), uint16(0xfff), uint16(0), uint8(3))
	f.Add([]byte{5, 6, 6, 7, 5, 7, 4, 5, 4, 6, 4, 7}, uint16(1<<5), uint16(0xfff), uint16(1<<4), uint8(3))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0), uint8(3))
	for i := range fuzzSizes {
		f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3, 3, 4, 4, 5, 3, 5, 5, 6, 6, 7}, uint16(0), uint16(0xfff), uint16(0), uint8(i))
		f.Add([]byte{0, 6, 6, 11, 0, 11, 1, 6, 1, 11, 0, 1, 5, 6, 5, 0}, uint16(1), uint16(0xffe), uint16(1<<5), uint8(i))
	}
	f.Fuzz(func(t *testing.T, edges []byte, rMask, pMask, xMask uint16, size uint8) {
		n := fuzzSizes[int(size)%len(fuzzSizes)]
		base := fuzzBase(n)
		var adj [fuzzActive]uint16
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges) && i < fuzzActive*(fuzzActive-1); i += 2 {
			u, v := int(edges[i])%fuzzActive, int(edges[i+1])%fuzzActive
			if u != v {
				b.AddEdge(int32(base+u), int32(base+v))
				adj[u] |= 1 << v
				adj[v] |= 1 << u
			}
		}
		g := b.Build()

		// R: the nodes of rMask that keep R a clique, in ascending order;
		// common is what every node of R is adjacent to.
		var r, common uint16 = 0, 1<<fuzzActive - 1
		for i := 0; i < fuzzActive; i++ {
			if rMask>>i&1 == 1 && common>>i&1 == 1 {
				r |= 1 << i
				common &= adj[i]
			}
		}
		p := pMask & common
		x := xMask & common &^ p

		var want [][]int32
		for s := uint16(0); ; s = (s - p) & p { // every subset of p
			k := r | s
			clique, maximal := true, true
			for i := 0; i < fuzzActive; i++ {
				if k>>i&1 == 1 && (k&^(1<<i))&^adj[i] != 0 {
					clique = false
				}
				if (p|x)&^k>>i&1 == 1 && k&^adj[i] == 0 {
					maximal = false
				}
			}
			if clique && maximal {
				want = append(want, nodesOf(base, k))
			}
			if s == p {
				break
			}
		}

		R, P, X := nodesOf(base, r), nodesOf(base, p), nodesOf(base, x)
		first := map[Algorithm][][]int32{}
		sameOrder := func(what string, alg Algorithm, got [][]int32) {
			t.Helper()
			if seq, ok := first[alg]; !ok {
				first[alg] = got
			} else if !slices.EqualFunc(got, seq, func(a, b []int32) bool { return slices.Equal(a, b) }) {
				t.Fatalf("n=%d %s: emission order differs from the first structure's", n, what)
			}
		}
		for _, c := range AllCombos() {
			got := collectSubproblem(t, g, c, R, P, X)
			assertSameCliques(t, fmt.Sprintf("n=%d %v R=%012b P=%012b X=%012b", n, c, r, p, x), got, want)
			sameOrder(c.String(), c.Alg, got)
		}
		for _, alg := range []Algorithm{BKPivot, Tomita, Eppstein, XPivot} {
			c := Combo{Alg: alg, Struct: BitSetsParallel}
			r, err := NewRunnerPar(g, c, Par{Workers: 2, MinCandidates: 1})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]int32
			r.Subproblem(R, bitset.FromSlice(n, P), bitset.FromSlice(n, X), func(k []int32) {
				got = append(got, slices.Clone(k))
			})
			assertSameCliques(t, fmt.Sprintf("n=%d %v", n, c), got, want)
			sameOrder(c.String(), alg, got)
		}
	})
}

// nodesOf lists the nodes a fuzz mask stands for, ascending.
func nodesOf(base int, mask uint16) []int32 {
	out := make([]int32, 0, bits.OnesCount16(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, int32(base+bits.TrailingZeros16(mask)))
	}
	return out
}
