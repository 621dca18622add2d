package mce

import (
	"fmt"
	"testing"
)

// assertSameSequence requires got to equal want clique for clique, in order
// — the public determinism contract of WithIntraBlockParallelism.
func assertSameSequence(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cliques, want %d", what, len(got), len(want))
	}
	for i := range want {
		if key(got[i]) != key(want[i]) {
			t.Fatalf("%s: clique %d = {%s}, want {%s}", what, i, key(got[i]), key(want[i]))
		}
	}
}

func TestIntraBlockParallelismEndToEnd(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"social", GenerateSocialNetwork(240, 5, 0.5, 51)},
		{"dense", GenerateErdosRenyi(150, 0.5, 52)},
	}
	for _, tc := range graphs {
		base, err := Enumerate(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			res, err := Enumerate(tc.g, WithIntraBlockParallelism(w))
			if err != nil {
				t.Fatal(err)
			}
			assertSameSequence(t, fmt.Sprintf("%s/w%d", tc.name, w), res.Cliques, base.Cliques)
		}
	}
}

func TestIntraBlockParallelismValidation(t *testing.T) {
	g := fromEdges(2, []Edge{{U: 0, V: 1}})
	if _, err := Enumerate(g, WithIntraBlockParallelism(0)); err == nil {
		t.Fatal("WithIntraBlockParallelism(0) accepted")
	}
	if _, err := Enumerate(g, WithIntraBlockParallelism(-3)); err == nil {
		t.Fatal("WithIntraBlockParallelism(-3) accepted")
	}
}

// TestIntraBlockParallelismDistributed: BitSetsParallel combos travel the
// wire as ordinary combos; remote workers spin up their own pools and the
// result must still be the exact local sequential sequence.
func TestIntraBlockParallelismDistributed(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateErdosRenyi(150, 0.5, 53)
	local, err := Enumerate(g, WithBlockRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Enumerate(g, WithBlockRatio(0.5), WithWorkers(addrs...), WithIntraBlockParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSequence(t, "distributed", dist.Cliques, local.Cliques)
}
