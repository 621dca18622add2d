package decomp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/bitset"
	"mce/internal/dtree"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/kcore"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestCutClassification(t *testing.T) {
	// Star: centre degree 5, leaves degree 1.
	b := graph.NewBuilder(6)
	for v := int32(1); v < 6; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	feasible, hubs := Cut(g, 3)
	if len(hubs) != 1 || hubs[0] != 0 {
		t.Fatalf("hubs = %v, want [0]", hubs)
	}
	if len(feasible) != 5 {
		t.Fatalf("feasible = %v", feasible)
	}
	// m larger than every degree: no hubs.
	feasible, hubs = Cut(g, 6)
	if len(hubs) != 0 || len(feasible) != 6 {
		t.Fatalf("m=6: feasible=%d hubs=%d", len(feasible), len(hubs))
	}
	// Boundary: degree == m means hub (closed neighbourhood m+1 > m).
	_, hubs = Cut(g, 5)
	if len(hubs) != 1 {
		t.Fatalf("m=5: hubs = %v, want the degree-5 centre", hubs)
	}
}

func TestCutEmptyGraph(t *testing.T) {
	f, h := Cut(graph.Empty(0), 4)
	if len(f) != 0 || len(h) != 0 {
		t.Fatalf("empty graph: f=%v h=%v", f, h)
	}
}

func TestIsFeasible(t *testing.T) {
	g := graph.Complete(4) // every degree 3
	if IsFeasible(g, 0, 3) {
		t.Fatalf("degree 3 with m=3 should be hub")
	}
	if !IsFeasible(g, 0, 4) {
		t.Fatalf("degree 3 with m=4 should be feasible")
	}
}

// checkBlockInvariants verifies the structural promises of Algorithm 3.
func checkBlockInvariants(t *testing.T, g *graph.Graph, feasible []int32, m int, blocks []Block) {
	t.Helper()
	feasSet := bitset.FromSlice(g.N(), feasible)
	kernelOwner := make(map[int32]int)
	for bi, b := range blocks {
		if b.Graph.N() != len(b.Orig) {
			t.Fatalf("block %d: size mismatch", bi)
		}
		if b.Graph.N() > m {
			t.Fatalf("block %d: %d nodes exceed m=%d", bi, b.Graph.N(), m)
		}
		if len(b.Kernel) == 0 {
			t.Fatalf("block %d has no kernels", bi)
		}
		classified := 0
		for _, sets := range [][]int32{b.Kernel, b.Border, b.Visited} {
			classified += len(sets)
		}
		if classified != b.Graph.N() {
			t.Fatalf("block %d: %d classified of %d nodes", bi, classified, b.Graph.N())
		}
		for _, k := range b.Kernel {
			gk := b.Orig[k]
			if !feasSet.Has(gk) {
				t.Fatalf("block %d: kernel %d is not feasible", bi, gk)
			}
			if owner, dup := kernelOwner[gk]; dup {
				t.Fatalf("node %d kernel in blocks %d and %d", gk, owner, bi)
			}
			kernelOwner[gk] = bi
			// The kernel's full neighbourhood is inside the block.
			inBlock := map[int32]bool{}
			for _, o := range b.Orig {
				inBlock[o] = true
			}
			for _, u := range g.Neighbors(gk) {
				if !inBlock[u] {
					t.Fatalf("block %d: kernel %d misses neighbour %d", bi, gk, u)
				}
			}
		}
		// Induced subgraph edges match the original graph.
		for u := int32(0); u < int32(b.Graph.N()); u++ {
			for _, v := range b.Graph.Neighbors(u) {
				if !g.HasEdge(b.Orig[u], b.Orig[v]) {
					t.Fatalf("block %d: phantom edge %d-%d", bi, b.Orig[u], b.Orig[v])
				}
			}
		}
	}
	// Kernel sets partition the feasible nodes.
	if len(kernelOwner) != len(feasible) {
		t.Fatalf("kernels cover %d of %d feasible nodes", len(kernelOwner), len(feasible))
	}
}

func TestBlocksPartitionFeasible(t *testing.T) {
	g := gen.HolmeKim(400, 5, 0.6, 3)
	m := g.MaxDegree() / 2
	if m < 8 {
		m = 8
	}
	feasible, _ := Cut(g, m)
	blocks := Blocks(g, feasible, m, Options{})
	checkBlockInvariants(t, g, feasible, m, blocks)
}

func TestBlocksIsolatedNodes(t *testing.T) {
	g := graph.Empty(5)
	feasible, hubs := Cut(g, 3)
	if len(hubs) != 0 {
		t.Fatalf("isolated nodes classified as hubs")
	}
	blocks := Blocks(g, feasible, 3, Options{})
	if len(blocks) != 5 {
		t.Fatalf("got %d blocks, want 5 singletons", len(blocks))
	}
	for _, b := range blocks {
		if b.Graph.N() != 1 || len(b.Kernel) != 1 {
			t.Fatalf("singleton block malformed: %+v", b)
		}
	}
}

func TestBlocksDenseNeighborsShareBlock(t *testing.T) {
	// Two K4s joined by one edge; m=8 fits a whole K4 plus its one
	// external neighbour, so each K4's kernels land in the same block.
	b := graph.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+4, v+4)
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()
	feasible, _ := Cut(g, 8)
	blocks := Blocks(g, feasible, 8, Options{})
	checkBlockInvariants(t, g, feasible, 8, blocks)
	// Each clique {0..3} and {4..7} must appear inside some single block.
	for _, want := range [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		found := false
		for _, blk := range blocks {
			have := map[int32]bool{}
			for _, o := range blk.Orig {
				have[o] = true
			}
			all := true
			for _, v := range want {
				if !have[v] {
					all = false
					break
				}
			}
			if all {
				found = true
			}
		}
		if !found {
			t.Fatalf("clique %v split across blocks", want)
		}
	}
}

func collectBlockCliques(t *testing.T, blocks []Block, combo mcealg.Combo) [][]int32 {
	t.Helper()
	var out [][]int32
	for i := range blocks {
		err := AnalyzeBlock(&blocks[i], combo, func(c []int32) {
			cp := make([]int32, len(c))
			copy(cp, c)
			out = append(out, cp)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestAnalyzeBlocksFindAllFeasibleCliquesOnce(t *testing.T) {
	// With m above the max degree there are no hubs, so block analysis
	// alone must produce every maximal clique of the graph exactly once.
	g := gen.HolmeKim(250, 4, 0.7, 11)
	m := g.MaxDegree() + 1
	feasible, hubs := Cut(g, m)
	if len(hubs) != 0 {
		t.Fatalf("unexpected hubs with m > maxdeg")
	}
	blocks := Blocks(g, feasible, m, Options{})
	checkBlockInvariants(t, g, feasible, m, blocks)

	got := collectBlockCliques(t, blocks, mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets})
	want := mcealg.ReferenceCollect(g)

	gs := map[string]int{}
	for _, c := range got {
		gs[key(c)]++
	}
	for k, cnt := range gs {
		if cnt > 1 {
			t.Fatalf("clique {%s} emitted %d times", k, cnt)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d cliques, want %d", len(got), len(want))
	}
	for _, c := range want {
		if gs[key(c)] != 1 {
			t.Fatalf("clique {%s} missing", key(c))
		}
	}
}

func TestAnalyzeBlockRespectsVisited(t *testing.T) {
	// Triangle 0-1-2. Build a block where 2 is visited: only cliques
	// avoiding 2 and not extensible by 2 qualify — none, since {0,1}
	// extends by 2. So nothing is emitted.
	g := graph.Complete(3)
	sub, orig := graph.Induced(g, []int32{0, 1, 2})
	b := Block{Graph: sub, Orig: orig, Kernel: []int32{0, 1}, Visited: []int32{2}}
	var got [][]int32
	err := AnalyzeBlock(&b, mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Lists}, func(c []int32) {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("emitted %v despite visited node", got)
	}
}

func TestAnalyzeBlockKernelOnly(t *testing.T) {
	// Same triangle with all three nodes kernels: exactly one clique.
	g := graph.Complete(3)
	sub, orig := graph.Induced(g, []int32{0, 1, 2})
	b := Block{Graph: sub, Orig: orig, Kernel: []int32{0, 1, 2}}
	var got [][]int32
	err := AnalyzeBlock(&b, mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.Matrix}, func(c []int32) {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || key(got[0]) != "0,1,2" {
		t.Fatalf("got %v, want [{0,1,2}]", got)
	}
}

func TestMinAdjacencyOption(t *testing.T) {
	// A long path with MinAdjacency 2 yields smaller blocks than with 1,
	// because path nodes never have 2 edges into the kernel set.
	b := graph.NewBuilder(30)
	for v := int32(0); v < 29; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	feasible, _ := Cut(g, 10)
	loose := Blocks(g, feasible, 10, Options{MinAdjacency: 1})
	strict := Blocks(g, feasible, 10, Options{MinAdjacency: 2})
	if len(strict) <= len(loose) {
		t.Fatalf("MinAdjacency=2 gave %d blocks, expected more than %d", len(strict), len(loose))
	}
	checkBlockInvariants(t, g, feasible, 10, strict)
}

// Property: on random graphs with no hubs, decomposition + block analysis
// equals the reference enumeration exactly (count and content), for several
// combos.
func TestQuickDecompositionComplete(t *testing.T) {
	combos := []mcealg.Combo{
		{Alg: mcealg.Tomita, Struct: mcealg.BitSets},
		{Alg: mcealg.Eppstein, Struct: mcealg.Lists},
		{Alg: mcealg.XPivot, Struct: mcealg.Matrix},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 5
		g := gen.ErdosRenyi(n, 0.15+rng.Float64()*0.2, seed)
		m := g.MaxDegree() + 1 + rng.Intn(5)
		feasible, hubs := Cut(g, m)
		if len(hubs) != 0 {
			return false
		}
		blocks := Blocks(g, feasible, m, Options{})
		want := map[string]bool{}
		for _, c := range mcealg.ReferenceCollect(g) {
			want[key(c)] = true
		}
		for _, combo := range combos {
			got := map[string]int{}
			for i := range blocks {
				err := AnalyzeBlock(&blocks[i], combo, func(c []int32) {
					got[key(c)]++
				})
				if err != nil {
					return false
				}
			}
			if len(got) != len(want) {
				return false
			}
			for k, cnt := range got {
				if cnt != 1 || !want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: with hubs present, block analysis finds exactly the reference
// cliques that contain at least one feasible node.
func TestQuickBlocksFindFeasibleSideCliques(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 10
		g := gen.BarabasiAlbert(n, 3, seed)
		m := g.MaxDegree()/2 + 2 // guarantees some hubs on BA graphs usually
		feasible, _ := Cut(g, m)
		feasSet := map[int32]bool{}
		for _, v := range feasible {
			feasSet[v] = true
		}
		want := map[string]bool{}
		for _, c := range mcealg.ReferenceCollect(g) {
			hasFeasible := false
			for _, v := range c {
				if feasSet[v] {
					hasFeasible = true
					break
				}
			}
			if hasFeasible {
				want[key(c)] = true
			}
		}
		blocks := Blocks(g, feasible, m, Options{})
		got := map[string]int{}
		for i := range blocks {
			err := AnalyzeBlock(&blocks[i], mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets},
				func(c []int32) { got[key(c)]++ })
			if err != nil {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, cnt := range got {
			if cnt != 1 || !want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedOrders(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 5)
	m := g.MaxDegree() + 1
	feasible, _ := Cut(g, m)
	for _, opts := range []Options{
		{Order: OrderDegreeAsc},
		{Order: OrderID},
		{Order: OrderRandom, Seed: 7},
	} {
		blocks := Blocks(g, feasible, m, opts)
		checkBlockInvariants(t, g, feasible, m, blocks)
	}
}

func TestOrderRandomDeterministicPerSeed(t *testing.T) {
	g := gen.HolmeKim(150, 4, 0.6, 9)
	m := g.MaxDegree()/2 + 2
	feasible, _ := Cut(g, m)
	a := Blocks(g, feasible, m, Options{Order: OrderRandom, Seed: 3})
	b := Blocks(g, feasible, m, Options{Order: OrderRandom, Seed: 3})
	if len(a) != len(b) {
		t.Fatalf("same seed, different block counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Graph.N() != b[i].Graph.N() || len(a[i].Kernel) != len(b[i].Kernel) {
			t.Fatalf("same seed, block %d differs", i)
		}
	}
	c := Blocks(g, feasible, m, Options{Order: OrderRandom, Seed: 4})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Graph.N() != c[i].Graph.N() {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("different seeds produced identical decompositions (possible but unlikely)")
	}
}

func TestDenseOrderingYieldsDenserBlocks(t *testing.T) {
	// On a clustered graph, degree-ascending greedy growth should produce
	// blocks at least as dense on average as random seeding — §7's point
	// against hash partitioning.
	g := gen.HolmeKim(800, 5, 0.75, 13)
	m := g.MaxDegree() / 2
	feasible, _ := Cut(g, m)
	avgDensity := func(blocks []Block) float64 {
		total, n := 0.0, 0
		for _, b := range blocks {
			if b.Graph.N() >= 2 {
				total += b.Graph.Density()
				n++
			}
		}
		return total / float64(n)
	}
	greedy := avgDensity(Blocks(g, feasible, m, Options{Order: OrderDegreeAsc}))
	random := avgDensity(Blocks(g, feasible, m, Options{Order: OrderRandom, Seed: 1}))
	if greedy < random*0.8 {
		t.Fatalf("greedy blocks much sparser than random: %.4f vs %.4f", greedy, random)
	}
}

// referenceBlocks is BLOCKS as it stood before the induction kernel, kept as
// the oracle for the block plan: reflection-sorted seed order, full-bitset
// clears and scan per block, and an induced subgraph relabelled through a
// map and rebuilt by a graph.Builder.
func referenceBlocks(g *graph.Graph, feasible []int32, m int, opts Options) []Block {
	minAdj := max(opts.MinAdjacency, 1)
	n := g.N()

	order := slices.Clone(feasible)
	switch opts.Order {
	case OrderID:
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	case OrderRandom:
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	default:
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Degree(order[i]), g.Degree(order[j])
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
	}

	isFeasible := bitset.FromSlice(n, feasible)
	assigned := bitset.New(n)
	cover := bitset.New(n)
	inKernel := bitset.New(n)
	adjCount := make([]int32, n)
	var blocks []Block
	for _, start := range order {
		if assigned.Has(start) {
			continue
		}
		cover.Clear()
		inKernel.Clear()
		var touched []int32
		addKernel := func(v int32) {
			inKernel.Add(v)
			assigned.Add(v)
			cover.Add(v)
			for _, u := range g.Neighbors(v) {
				cover.Add(u)
				if adjCount[u] == 0 {
					touched = append(touched, u)
				}
				adjCount[u]++
			}
		}
		growthOf := func(v int32) int {
			grow := 0
			if !cover.Has(v) {
				grow++
			}
			for _, u := range g.Neighbors(v) {
				if !cover.Has(u) {
					grow++
				}
			}
			return grow
		}
		addKernel(start)
		for {
			best, bestAdj := int32(-1), int32(0)
			for _, v := range touched {
				if adjCount[v] >= bestAdj && isFeasible.Has(v) && !assigned.Has(v) {
					if adjCount[v] > bestAdj || (best >= 0 && v < best) || best < 0 {
						best, bestAdj = v, adjCount[v]
					}
				}
			}
			if best < 0 || int(bestAdj) < minAdj || cover.Count()+growthOf(best) > m {
				break
			}
			addKernel(best)
		}

		nodes := cover.Slice()
		newID := make(map[int32]int32, len(nodes))
		for local, v := range nodes {
			newID[v] = int32(local)
		}
		b := graph.NewBuilder(len(nodes))
		for nu, u := range nodes {
			for _, w := range g.Neighbors(u) {
				if nw, ok := newID[w]; ok {
					b.AddEdge(int32(nu), nw)
				}
			}
		}
		blk := Block{Graph: b.Build(), Orig: nodes}
		for local, global := range nodes {
			switch {
			case inKernel.Has(global):
				blk.Kernel = append(blk.Kernel, int32(local))
			case assigned.Has(global):
				blk.Visited = append(blk.Visited, int32(local))
			default:
				blk.Border = append(blk.Border, int32(local))
			}
		}
		blocks = append(blocks, blk)
		for _, v := range touched {
			adjCount[v] = 0
		}
	}
	return blocks
}

// The block plan is pinned field by field: Orig, Kernel, Border, Visited and
// every row of Graph, for every seeding order and adjacency threshold — for
// Blocks, and for its two steps on their own: Grow alone reproduces the
// membership of the reference with no graph at all, and Grow followed by
// Induce is Blocks.
func TestBlocksMatchReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":        gen.ErdosRenyi(250, 0.06, 21),
		"holme-kim": gen.HolmeKim(1500, 6, 0.7, 22),
		"ba":        gen.BarabasiAlbert(600, 4, 23),
	}
	for name, g := range graphs {
		for _, m := range []int{g.MaxDegree()/3 + 2, g.MaxDegree() + 1} {
			feasible, _ := Cut(g, m)
			for _, order := range []Order{OrderDegreeAsc, OrderID, OrderRandom} {
				for _, minAdj := range []int{1, 2, 3} {
					opts := Options{Order: order, MinAdjacency: minAdj, Seed: 5}
					what := fmt.Sprintf("%s m=%d order=%d minAdj=%d", name, m, order, minAdj)
					got, want := Blocks(g, feasible, m, opts), referenceBlocks(g, feasible, m, opts)
					grown := Grow(g, feasible, m, opts)
					if len(got) != len(want) || len(grown) != len(want) {
						t.Fatalf("%s: %d blocks, %d grown, want %d", what, len(got), len(grown), len(want))
					}
					inducer := graph.NewInducer(g)
					for i := range want {
						requireSameBlock(t, fmt.Sprintf("%s block %d", what, i), &got[i], &want[i])
						if grown[i].Graph != nil {
							t.Fatalf("%s block %d: Grow induced a graph", what, i)
						}
						planned := want[i]
						planned.Graph = nil
						requireSameMembership(t, fmt.Sprintf("%s grown block %d", what, i), &grown[i], &planned)
						Induce(&grown[i], inducer)
					}
					if !reflect.DeepEqual(grown, got) {
						t.Fatalf("%s: Grow + Induce differs from Blocks", what)
					}
				}
			}
		}
	}
}

func requireSameMembership(t *testing.T, what string, got, want *Block) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"Orig", got.Orig, want.Orig}, {"Kernel", got.Kernel, want.Kernel},
		{"Border", got.Border, want.Border}, {"Visited", got.Visited, want.Visited},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s: %s = %v, want %v", what, f.name, f.got, f.want)
		}
	}
}

func requireSameBlock(t *testing.T, what string, got, want *Block) {
	t.Helper()
	requireSameMembership(t, what, got, want)
	if got.Graph.N() != want.Graph.N() || got.Graph.M() != want.Graph.M() {
		t.Fatalf("%s: Graph = %v, want %v", what, got.Graph, want.Graph)
	}
	for v := int32(0); v < int32(want.Graph.N()); v++ {
		if !slices.Equal(got.Graph.Neighbors(v), want.Graph.Neighbors(v)) {
			t.Fatalf("%s: row %d = %v, want %v", what, v, got.Graph.Neighbors(v), want.Graph.Neighbors(v))
		}
	}
}

// The seed order does not depend on the order feasible arrives in.
func TestSeedOrderDegreeAscUnsortedInput(t *testing.T) {
	g := gen.HolmeKim(300, 4, 0.6, 31)
	feasible, _ := Cut(g, g.MaxDegree()/2+2)
	want := seedOrder(g, feasible, Options{})
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if g.Degree(a) > g.Degree(b) || (g.Degree(a) == g.Degree(b) && a >= b) {
			t.Fatalf("seed order not (degree, id) ascending at %d: %d then %d", i, a, b)
		}
	}
	shuffled := slices.Clone(feasible)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := seedOrder(g, shuffled, Options{}); !slices.Equal(got, want) {
		t.Fatalf("seed order differs for a shuffled feasible list")
	}
}

var benchBlocks []Block

func BenchmarkBlocks(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	const m = 56
	feasible, _ := Cut(g, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBlocks = Blocks(g, feasible, m, Options{})
	}
}

// BenchmarkGrow is the serial half of BenchmarkBlocks alone: the plan, no
// induced subgraph, at the two block sizes of the benchmark workloads —
// m = 56 (social_sparse: many small blocks) and m = 299 (durable_cluster:
// fewer, larger ones) — for Grow and for the rescan reference it replaced.
func BenchmarkGrow(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	for _, m := range []int{56, 299} {
		feasible, _ := Cut(g, m)
		for _, impl := range []struct {
			name string
			grow func(*graph.Graph, []int32, int, Options) []Block
		}{{"grow", Grow}, {"reference", referenceGrow}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchBlocks = impl.grow(g, feasible, m, Options{})
				}
			})
		}
	}
}

// BenchmarkMaterialise is the other half as a worker runs it: every block of
// that plan induced into one Materialiser's buffers, nothing kept.
func BenchmarkMaterialise(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	const m = 56
	feasible, _ := Cut(g, m)
	blocks := Grow(g, feasible, m, Options{})
	mat := NewMaterialiser(g)
	edges := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range blocks {
			edges += mat.Materialise(&blocks[j]).Graph.M()
		}
	}
	if edges == 0 {
		b.Fatal("no edges induced")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
}

// TestAnalyzerWarmAllocs: once an Analyzer has seen a block, analysing
// another of the same size allocates nothing — for every structure, and for
// the bucket-peeling Eppstein too.
func TestAnalyzerWarmAllocs(t *testing.T) {
	blocks := make([]Block, 2)
	for i := range blocks {
		g := gen.HolmeKim(130, 6, 0.7, int64(3+i))
		blocks[i] = Block{Graph: g, Orig: make([]int32, g.N())}
		for v := int32(0); v < int32(g.N()); v++ {
			blocks[i].Orig[v] = v
			switch {
			case v%3 == 0:
				blocks[i].Kernel = append(blocks[i].Kernel, v)
			case v%7 == 0:
				blocks[i].Visited = append(blocks[i].Visited, v)
			default:
				blocks[i].Border = append(blocks[i].Border, v)
			}
		}
	}
	for _, combo := range mcealg.AllCombos() {
		var an Analyzer
		cliques := 0
		emit := func([]int32) { cliques++ }
		analyze := func(b *Block) {
			if err := an.Analyze(b, combo, emit, mcealg.Par{}); err != nil {
				t.Fatal(err)
			}
		}
		analyze(&blocks[0])
		analyze(&blocks[1]) // the deepest frames and widest buckets of either
		if cliques == 0 {
			t.Fatalf("%v: nothing emitted", combo)
		}
		if allocs := testing.AllocsPerRun(10, func() { analyze(&blocks[0]); analyze(&blocks[1]) }); allocs != 0 {
			t.Errorf("%v: a warm analyzer made %v allocations over two blocks, want 0", combo, allocs)
		}
	}
}

// TestMaterialiseWarmAllocs: what a worker does to a planned block — induce
// it into the materialiser's buffers, pick the combo from the published tree
// (with the peeling, on the dense graph; from the bound alone, on the sparse
// one), analyse it — allocates nothing once the worker has seen a block of
// that size.
func TestMaterialiseWarmAllocs(t *testing.T) {
	tree := dtree.Published()
	for name, g := range map[string]*graph.Graph{
		"dense":  gen.ErdosRenyi(260, 0.5, 5),
		"sparse": gen.HolmeKim(260, 2, 0.7, 5),
	} {
		// Two planned blocks of 130 nodes each, every role present.
		planned := make([]Block, 2)
		for i := range planned {
			b := &planned[i]
			for local := int32(0); local < 130; local++ {
				b.Orig = append(b.Orig, int32(i)*130+local)
				switch {
				case local%3 == 0:
					b.Kernel = append(b.Kernel, local)
				case local%7 == 0:
					b.Visited = append(b.Visited, local)
				default:
					b.Border = append(b.Border, local)
				}
			}
		}
		mat, an := NewMaterialiser(g), new(Analyzer)
		cliques := 0
		emit := func([]int32) { cliques++ }
		work := func(b *Block) {
			blk := mat.Materialise(b)
			combo := dtree.SafePredictGraph(tree, blk.Graph, &mat.Features)
			if err := an.Analyze(blk, combo, emit, mcealg.Par{}); err != nil {
				t.Fatal(err)
			}
		}
		work(&planned[0])
		work(&planned[1])
		if cliques == 0 {
			t.Fatalf("%s: nothing emitted", name)
		}
		if peeled := mat.Features.Peels > 0; peeled != (name == "dense") {
			t.Fatalf("%s: %d peelings", name, mat.Features.Peels)
		}
		if planned[0].Graph != nil || planned[1].Graph != nil {
			t.Fatalf("%s: materialising wrote to the plan", name)
		}
		if allocs := testing.AllocsPerRun(10, func() { work(&planned[0]); work(&planned[1]) }); allocs != 0 {
			t.Errorf("%s: a warm worker made %v allocations over two planned blocks, want 0", name, allocs)
		}
	}
}

// BenchmarkAnalyzeBlocks is BLOCK-ANALYSIS over the plan of BenchmarkBlocks
// — the many small blocks of the social_sparse shape, combos from the
// published tree — from one warm Analyzer, as a LocalExecutor worker runs it.
func BenchmarkAnalyzeBlocks(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 42)
	const m = 56
	feasible, _ := Cut(g, m)
	blocks := Blocks(g, feasible, m, Options{})
	combos := make([]mcealg.Combo, len(blocks))
	for i := range blocks {
		combos[i] = dtree.SafePredict(dtree.Published(), kcore.Measure(blocks[i].Graph))
	}
	var an Analyzer
	cliques := 0
	emit := func([]int32) { cliques++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range blocks {
			if err := an.Analyze(&blocks[j], combos[j], emit, mcealg.Par{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
}

// TestAnalyzeEmitsAscending: Analyze hands every clique to emit ascending in
// the original graph's IDs without sorting it — the runner emits local IDs
// ascending and Orig is ascending — for every combo, sequential and on a
// two-worker intra-block pool, over blocks with all three node roles: small
// ones with planted cliques, and blocks of several words whose cliques are
// shorter than a word count, where the runner sorts its stack rather than
// reading it off a bit set.
func TestAnalyzeEmitsAscending(t *testing.T) {
	var blocks []Block
	for _, c := range []struct {
		g *graph.Graph
		m int
	}{
		{gen.PlantCliques(gen.HolmeKim(400, 6, 0.7, 17), 6, 8, 20, 18), 40},
		{gen.HolmeKim(3000, 3, 0.3, 19), 300},
	} {
		feasible, _ := Cut(c.g, c.m)
		blocks = append(blocks, Blocks(c.g, feasible, c.m, Options{})...)
	}
	widest, visited := 0, 0
	for i := range blocks {
		widest, visited = max(widest, len(blocks[i].Orig)), visited+len(blocks[i].Visited)
	}
	if widest <= 192 || visited == 0 {
		t.Fatalf("widest block has %d nodes and %d are visited, want more than three words and some", widest, visited)
	}
	combos := append(mcealg.AllCombos(), mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSetsParallel})
	for _, combo := range combos {
		for _, par := range []mcealg.Par{{}, {Workers: 2, MinCandidates: 1}} {
			var an Analyzer
			cliques := 0
			emit := func(c []int32) {
				cliques++
				if !slices.IsSorted(c) {
					t.Fatalf("%v par=%d: clique %v is not ascending", combo, par.Workers, c)
				}
			}
			for i := range blocks {
				if err := an.Analyze(&blocks[i], combo.Bounded(blocks[i].Graph.N()), emit, par); err != nil {
					t.Fatal(err)
				}
			}
			if cliques == 0 {
				t.Fatalf("%v par=%d: nothing emitted", combo, par.Workers)
			}
		}
	}
}
