package mce_test

import (
	"fmt"

	"mce"
)

// The paper's Figure 1 scenario in miniature: a triangle of high-degree
// nodes whose clique is only found by the hub recursion.
func ExampleEnumerate() {
	b := mce.NewBuilder(7)
	// Triangle 0-1-2 plus a pendant per node keeps it simple.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	b.AddEdge(2, 5)
	b.AddEdge(5, 6)
	g := b.Build()

	res, err := mce.Enumerate(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("cliques:", len(res.Cliques))
	for _, c := range res.Cliques {
		if len(c) == 3 {
			fmt.Println("triangle:", c)
		}
	}
	// Output:
	// cliques: 5
	// triangle: [0 1 2]
}

func ExampleEnumerate_blockSize() {
	b := mce.NewBuilder(4)
	for _, e := range []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	res, err := mce.Enumerate(g, mce.WithBlockSize(3), mce.WithAlgorithm("Tomita", "BitSets"))
	if err != nil {
		panic(err)
	}
	for _, c := range res.Cliques {
		fmt.Println(c)
	}
	// Output:
	// [2 3]
	// [0 1 2]
}

func ExampleCommunities() {
	// Two triangles sharing an edge percolate into one k=3 community.
	b := mce.NewBuilder(4)
	for _, e := range []mce.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 1, V: 3}, {U: 2, V: 3},
	} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	res, err := mce.Enumerate(g)
	if err != nil {
		panic(err)
	}
	comms, err := mce.Communities(res, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(comms[0].Nodes)
	// Output:
	// [0 1 2 3]
}

func ExampleNewTracker() {
	tr, err := mce.NewTracker(mce.NewBuilder(3).Build()) // three isolated nodes
	if err != nil {
		panic(err)
	}
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 2)
	added, removed, err := tr.AddEdge(0, 2) // closes the triangle
	if err != nil {
		panic(err)
	}
	fmt.Println("added:", added)
	fmt.Println("removed:", removed)
	// Output:
	// added: [[0 1 2]]
	// removed: [[0 1] [1 2]]
}

func ExampleEnumerate_cliqueNumber() {
	// ω(g), the clique number, is the size of the largest maximal clique.
	b := mce.NewBuilder(5)
	for _, e := range []mce.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	res, err := mce.Enumerate(g)
	if err != nil {
		panic(err)
	}
	var largest []int32
	for _, c := range res.Cliques {
		if len(c) > len(largest) {
			largest = c
		}
	}
	fmt.Println(largest)
	fmt.Println(len(largest))
	// Output:
	// [0 1 2]
	// 3
}

func ExampleEnumerateStream() {
	// With the default m = maxdegree/2 = 2, node 2 (degree 3) is a hub, so
	// the triangle through it is found by the hub recursion (level 1).
	b := mce.NewBuilder(4)
	for _, e := range []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	stats, err := mce.EnumerateStream(g, func(clique []int32, hubLevel int) {
		fmt.Println(clique, "level", hubLevel)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("total:", stats.TotalCliques)
	// Output:
	// [2 3] level 0
	// [0 1 2] level 1
	// total: 2
}

func ExampleKPlexes() {
	// C4 is a maximal 2-plex: every member misses exactly one other.
	b := mce.NewBuilder(4)
	for _, e := range []mce.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	plexes, err := mce.KPlexes(g, 2, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(plexes)
	// Output:
	// [[0 1 2 3]]
}

func ExampleGraphMetrics() {
	b := mce.NewBuilder(5)
	for _, e := range []mce.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	} {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	s := mce.GraphMetrics(g)
	fmt.Printf("n=%d m=%d degeneracy=%d d*=%d\n", s.Nodes, s.Edges, s.Degeneracy, s.DStar)
	// Output:
	// n=5 m=5 degeneracy=2 d*=2
}
