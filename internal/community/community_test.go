package community

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

func key(c []int32) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestInvalidK(t *testing.T) {
	if _, err := Detect(nil, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	cs, err := Detect(nil, 3)
	if err != nil || len(cs) != 0 {
		t.Fatalf("Detect(nil) = %v, %v", cs, err)
	}
}

func TestTrianglesSharingEdgeMerge(t *testing.T) {
	// Cliques {0,1,2} and {1,2,3} share 2 nodes: one k=3 community.
	cs, err := Detect([][]int32{{0, 1, 2}, {1, 2, 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3" {
		t.Fatalf("communities = %+v", cs)
	}
	if cs[0].Cliques != 2 || cs[0].MaxCliqueSize != 3 {
		t.Fatalf("stats = %+v", cs[0])
	}
}

func TestTrianglesSharingVertexStaySeparate(t *testing.T) {
	// Sharing only one node (< k−1 = 2): two communities.
	cs, err := Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("communities = %+v", cs)
	}
	// But at k=2 (overlap ≥ 1) they merge.
	cs, err = Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3,4" {
		t.Fatalf("k=2 communities = %+v", cs)
	}
}

func TestSmallCliquesIgnored(t *testing.T) {
	// Edges (2-cliques) cannot seed a k=3 community.
	cs, err := Detect([][]int32{{0, 1}, {2, 3}, {4, 5, 6}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "4,5,6" {
		t.Fatalf("communities = %+v", cs)
	}
}

func TestChainOfCliquesPercolates(t *testing.T) {
	// A percolation chain: each consecutive pair overlaps in 2 nodes, the
	// ends share nothing — still one community via the chain.
	cliques := [][]int32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	cs, err := Detect(cliques, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || key(cs[0].Nodes) != "0,1,2,3,4,5" {
		t.Fatalf("communities = %+v", cs)
	}
}

func TestCommunitiesSortedBySize(t *testing.T) {
	cs, err := Detect([][]int32{{0, 1, 2}, {10, 11, 12}, {11, 12, 13}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0].Nodes) < len(cs[1].Nodes) {
		t.Fatalf("not size-ordered: %+v", cs)
	}
}

func TestMembershipOverlap(t *testing.T) {
	cs, err := Detect([][]int32{{0, 1, 2}, {2, 3, 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := Membership(cs)
	if len(m[2]) != 2 {
		t.Fatalf("node 2 should be in both communities: %v", m[2])
	}
	if len(m[0]) != 1 || len(m[4]) != 1 {
		t.Fatalf("membership = %v", m)
	}
}

func TestEndToEndTwoPlantedCommunities(t *testing.T) {
	// Two K6s bridged by a single edge: clique percolation at k=4 must
	// recover exactly the two plants.
	b := graph.NewBuilder(12)
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+6, v+6)
		}
	}
	b.AddEdge(5, 6)
	g := b.Build()
	cliques := mcealg.ReferenceCollect(g)
	cs, err := Detect(cliques, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("communities = %+v", cs)
	}
	got := map[string]bool{key(cs[0].Nodes): true, key(cs[1].Nodes): true}
	if !got["0,1,2,3,4,5"] || !got["6,7,8,9,10,11"] {
		t.Fatalf("wrong communities: %+v", cs)
	}
}

// Property: Detect is a partition refinement — every input clique of size
// ≥ k lands in exactly one community, and communities' clique counts sum to
// the number of kept cliques.
func TestQuickCliqueAccounting(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.HolmeKim(int(seed%100)+30, 4, 0.6, seed)
		cliques := mcealg.ReferenceCollect(g)
		k := 3
		cs, err := Detect(cliques, k)
		if err != nil {
			return false
		}
		kept := 0
		for _, c := range cliques {
			if len(c) >= k {
				kept++
			}
		}
		sum := 0
		for _, com := range cs {
			sum += com.Cliques
			if com.MaxCliqueSize < k || len(com.Nodes) < k {
				return false
			}
		}
		return sum == kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: percolation transitivity — if cliques A,B overlap ≥ k−1 they
// are in the same community.
func TestQuickAdjacentCliquesSameCommunity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(25, 0.35, seed)
		cliques := mcealg.ReferenceCollect(g)
		k := 3
		cs, err := Detect(cliques, k)
		if err != nil {
			return false
		}
		// Community index per clique key.
		commOf := map[string]int{}
		for i, com := range cs {
			for _, c := range cliques {
				if len(c) < k {
					continue
				}
				inside := true
				for _, v := range c {
					if !contains(com.Nodes, v) {
						inside = false
						break
					}
				}
				if inside {
					if _, dup := commOf[key(c)]; !dup {
						commOf[key(c)] = i
					}
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			if len(cliques) < 2 {
				break
			}
			a := cliques[rng.Intn(len(cliques))]
			b := cliques[rng.Intn(len(cliques))]
			if len(a) < k || len(b) < k {
				continue
			}
			if overlapAtLeast(a, b, k-1) && commOf[key(a)] != commOf[key(b)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestOverlapAtLeast(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
		ok   bool
	}{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2, true},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 3, false},
		{[]int32{1, 2}, []int32{3, 4}, 1, false},
		{[]int32{}, []int32{1}, 0, true},
		{[]int32{1}, []int32{1}, 1, true},
	}
	for _, c := range cases {
		if got := overlapAtLeast(c.a, c.b, c.want); got != c.ok {
			t.Errorf("overlapAtLeast(%v, %v, %d) = %v, want %v", c.a, c.b, c.want, got, c.ok)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 2)
	if uf.find(0) != uf.find(3) {
		t.Fatal("union chain broken")
	}
	if uf.find(4) == uf.find(0) || uf.find(4) == uf.find(5) {
		t.Fatal("separate elements merged")
	}
}

func BenchmarkDetect(b *testing.B) {
	g := gen.HolmeKim(3000, 6, 0.7, 21)
	cliques, err := mcealg.Collect(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(cliques, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// bruteForce is the percolation oracle: every pair of kept cliques is
// tested directly, with no postings and no candidate pruning, and the
// components are grouped through maps.
func bruteForce(cliques [][]int32, k int) []Community {
	var kept [][]int32
	for _, c := range cliques {
		if len(c) >= k {
			kept = append(kept, c)
		}
	}
	parent := make([]int, len(kept))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for a := range kept {
		for b := a + 1; b < len(kept); b++ {
			shared := 0
			for _, u := range kept[a] {
				for _, v := range kept[b] {
					if u == v {
						shared++
					}
				}
			}
			if shared >= k-1 {
				parent[find(a)] = find(b)
			}
		}
	}
	byRoot := map[int]*Community{}
	nodes := map[int]map[int32]bool{}
	for i, c := range kept {
		r := find(i)
		if byRoot[r] == nil {
			byRoot[r] = &Community{}
			nodes[r] = map[int32]bool{}
		}
		byRoot[r].Cliques++
		byRoot[r].MaxCliqueSize = max(byRoot[r].MaxCliqueSize, len(c))
		for _, v := range c {
			nodes[r][v] = true
		}
	}
	out := []Community{}
	for r, com := range byRoot {
		for v := range nodes[r] {
			com.Nodes = append(com.Nodes, v)
		}
		slices.Sort(com.Nodes)
		out = append(out, *com)
	}
	// The documented total order, spelled out.
	slices.SortFunc(out, func(a, b Community) int {
		switch {
		case len(a.Nodes) != len(b.Nodes):
			return len(b.Nodes) - len(a.Nodes)
		case !slices.Equal(a.Nodes, b.Nodes):
			return slices.Compare(a.Nodes, b.Nodes)
		case a.Cliques != b.Cliques:
			return a.Cliques - b.Cliques
		}
		return a.MaxCliqueSize - b.MaxCliqueSize
	})
	return out
}

// checkAgainstOracle compares Detect with bruteForce for k = 2…ω+1, and
// Detect on a shuffled copy of the family with Detect on the original.
func checkAgainstOracle(t *testing.T, name string, cliques [][]int32, seed int64) {
	t.Helper()
	omega := 0
	for _, c := range cliques {
		omega = max(omega, len(c))
	}
	shuffled := slices.Clone(cliques)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for k := 2; k <= omega+1; k++ {
		got, err := Detect(cliques, k)
		if err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
		if want := bruteForce(cliques, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: Detect gives %d communities, the all-pairs oracle %d\ngot  %v\nwant %v",
				name, k, len(got), len(want), got, want)
		}
		again, err := Detect(shuffled, k)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%s k=%d: Detect on a shuffled family differs (err %v)", name, k, err)
		}
	}
}

// TestDetectMatchesBruteForce checks the pruned percolation against the
// all-pairs oracle on seeded random, scale-free, clustered and
// planted-clique graphs, at every k up to one past the clique number.
func TestDetectMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		graphs := []struct {
			name string
			g    *graph.Graph
		}{
			{"er", gen.ErdosRenyi(40, 0.3, seed)},
			{"ba", gen.BarabasiAlbert(80, 3, seed)},
			{"hk", gen.HolmeKim(120, 4, 0.7, seed)},
			{"planted", gen.PlantCliques(gen.ErdosRenyi(70, 0.08, seed), 5, 4, 9, seed)},
		}
		for _, tc := range graphs {
			checkAgainstOracle(t, fmt.Sprintf("%s/seed=%d", tc.name, seed), mcealg.ReferenceCollect(tc.g), seed)
		}
	}
}

// TestDetectSparseNodeIDs covers the relabelled path: node IDs far apart
// and negative, in the same relative order as a dense family.
func TestDetectSparseNodeIDs(t *testing.T) {
	dense := mcealg.ReferenceCollect(gen.HolmeKim(60, 4, 0.7, 7))
	sparse := make([][]int32, len(dense))
	for i, c := range dense {
		for _, v := range c {
			sparse[i] = append(sparse[i], v*30_000_000-1_000_000_000)
		}
	}
	checkAgainstOracle(t, "sparse", sparse, 7)
}

func TestPercolateRefusesShortClique(t *testing.T) {
	if _, err := Percolate([]int32{0, 1, 2, 3, 4}, []int{0, 3, 5}, 3); err == nil {
		t.Fatal("a 2-member clique at k=3 was accepted")
	}
}

// FuzzDetect builds a graph on at most 12 nodes from byte pairs and checks
// Detect against the all-pairs oracle at every k.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3, 1, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 3, 5})
	f.Fuzz(func(t *testing.T, edges []byte) {
		const n = 12
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(int32(edges[i]%n), int32(edges[i+1]%n))
		}
		checkAgainstOracle(t, "fuzz", mcealg.ReferenceCollect(b.Build()), int64(len(edges)))
	})
}
