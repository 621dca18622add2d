package decomp

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"mce/internal/bitset"
	"mce/internal/gen"
	"mce/internal/graph"
)

// referenceGrow is Grow as it stood before the bucket queue: four per-node
// bitsets, and a rescan of every node the block touches for each kernel it
// adds. It is kept as the oracle for the plan.
func referenceGrow(g *graph.Graph, feasible []int32, m int, opts Options) []Block {
	minAdj := max(opts.MinAdjacency, 1)
	n := g.N()
	order := seedOrder(g, feasible, opts)

	isFeasible := bitset.FromSlice(n, feasible)
	assigned := bitset.New(n)
	var blocks []Block

	cover := bitset.New(n)
	inKernel := bitset.New(n)
	adjCount := make([]int32, n)
	var kernels, touched []int32

	coverSize := 0
	addKernel := func(v int32) {
		inKernel.Add(v)
		assigned.Add(v)
		kernels = append(kernels, v)
		if !cover.Has(v) {
			cover.Add(v)
			coverSize++
		}
		for _, u := range g.Neighbors(v) {
			if !cover.Has(u) {
				cover.Add(u)
				coverSize++
			}
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

	for _, start := range order {
		if assigned.Has(start) {
			continue
		}
		kernels, touched, coverSize = kernels[:0], touched[:0], 0
		addKernel(start)
		for {
			best, bestAdj := int32(-1), int32(0)
			for _, v := range touched {
				if adjCount[v] >= bestAdj && isFeasible.Has(v) &&
					!assigned.Has(v) && !inKernel.Has(v) {
					if adjCount[v] > bestAdj || (best >= 0 && v < best) || best < 0 {
						best, bestAdj = v, adjCount[v]
					}
				}
			}
			if best < 0 || int(bestAdj) < minAdj || coverSize+growthOf(best) > m {
				break
			}
			addKernel(best)
		}
		for _, k := range kernels {
			if adjCount[k] == 0 {
				touched = append(touched, k)
			}
		}
		slices.Sort(touched)
		blocks = append(blocks, referencePlan(touched, len(kernels), inKernel, assigned, isFeasible))

		for _, v := range touched {
			adjCount[v] = 0
			cover.Remove(v)
		}
		for _, k := range kernels {
			inKernel.Remove(k)
		}
	}
	return blocks
}

// referencePlan is plan as it stood over referenceGrow's bitsets.
func referencePlan(nodes []int32, nKernels int, inKernel, assigned, isFeasible *bitset.Set) Block {
	visited := func(v int32) bool { return assigned.Has(v) && isFeasible.Has(v) && !inKernel.Has(v) }
	nVisited := 0
	for _, v := range nodes {
		if visited(v) {
			nVisited++
		}
	}
	n, nBorder := len(nodes), len(nodes)-nKernels-nVisited
	buf := make([]int32, 2*n)
	copy(buf, nodes)
	blk := Block{Orig: buf[:n:n], Kernel: buf[n : n : n+nKernels]}
	if at := n + nKernels; nBorder > 0 {
		blk.Border = buf[at : at : at+nBorder]
	}
	if at := 2*n - nVisited; nVisited > 0 {
		blk.Visited = buf[at : at : 2*n]
	}
	for local, global := range nodes {
		switch {
		case inKernel.Has(global):
			blk.Kernel = append(blk.Kernel, int32(local))
		case visited(global):
			blk.Visited = append(blk.Visited, int32(local))
		default:
			blk.Border = append(blk.Border, int32(local))
		}
	}
	return blk
}

// planDigest hashes a whole plan: every block's Orig, Kernel, Border and
// Visited, each list prefixed by its length.
func planDigest(blocks []Block) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	word := func(v int32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	for i := range blocks {
		for _, list := range [][]int32{blocks[i].Orig, blocks[i].Kernel, blocks[i].Border, blocks[i].Visited} {
			word(int32(len(list)))
			for _, v := range list {
				word(v)
			}
		}
	}
	return h.Sum64()
}

// defaultBlockSize is the engine's m at its default ratio 0.5.
func defaultBlockSize(g *graph.Graph) int {
	return max(int(0.5*float64(g.MaxDegree())+0.999), 2)
}

// TestGrowPlanDigests pins the block plan over the whole corpus for every
// seeding order, MinAdjacency 1 and 2, and both a fixed m and the engine's
// default m. The digests were taken from the rescan Grow (referenceGrow);
// a plan that changes by one node in one role fails here. The plan is read
// as the engine reads it: pushed into a Plan while it is being grown.
func TestGrowPlanDigests(t *testing.T) {
	want := map[string]string{
		"order=0 minAdj=1 m=fixed":   "15146/f60f90a45fd3a7c0",
		"order=0 minAdj=1 m=default": "7079/08d8464e9676f34a",
		"order=0 minAdj=2 m=fixed":   "31119/7a049f396eb9aa4a",
		"order=0 minAdj=2 m=default": "21446/a2be2bac9d6e1752",
		"order=1 minAdj=1 m=fixed":   "13716/3b20022394f92fc7",
		"order=1 minAdj=1 m=default": "7013/45a318e80288d29b",
		"order=1 minAdj=2 m=fixed":   "31119/a36731054acd7f7d",
		"order=1 minAdj=2 m=default": "21446/f6a058838df70dd2",
		"order=2 minAdj=1 m=fixed":   "15681/d82ae0abb3a52f3c",
		"order=2 minAdj=1 m=default": "7559/ac0f2dc084cf9de4",
		"order=2 minAdj=2 m=fixed":   "31119/fe32cffd45238379",
		"order=2 minAdj=2 m=default": "21446/5b30eac68fc0b505",
	}
	corpus := gen.Corpus(7)
	for _, order := range []Order{OrderDegreeAsc, OrderID, OrderRandom} {
		for _, minAdj := range []int{1, 2} {
			for _, fixed := range []bool{true, false} {
				what := fmt.Sprintf("order=%d minAdj=%d m=%s", order, minAdj, map[bool]string{true: "fixed", false: "default"}[fixed])
				h := fnv.New64a()
				blocks := 0
				for _, c := range corpus {
					m := 24
					if !fixed {
						m = defaultBlockSize(c.Graph)
					}
					feasible, _ := Cut(c.Graph, m)
					plan := pushed(t, len(feasible), GrowSeq(c.Graph, feasible, m, Options{Order: order, MinAdjacency: minAdj, Seed: 11}))
					blocks += len(plan)
					fmt.Fprintf(h, "%s:%d:%016x;", c.Name, len(plan), planDigest(plan))
				}
				got := fmt.Sprintf("%d/%016x", blocks, h.Sum64())
				if got != want[what] {
					t.Errorf("%s: plan digest %s, want %s", what, got, want[what])
				}
			}
		}
	}
}

// growFromBytes builds a small graph and Grow's parameters from fuzz input:
// byte 0 the node count (1–64), byte 1 the order, byte 2 MinAdjacency
// (1–3), byte 3 m, and every further pair of bytes one edge.
func growFromBytes(data []byte) (g *graph.Graph, m int, opts Options) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := int(data[0])%64 + 1
	b := graph.NewBuilder(n)
	for i := 4; i+1 < len(data); i += 2 {
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
	}
	g = b.Build()
	m = int(data[3])%(g.MaxDegree()+2) + 2
	return g, m, Options{Order: Order(data[1] % 3), MinAdjacency: int(data[2])%3 + 1, Seed: int64(data[0])}
}

// graphBytes encodes g's edges in growFromBytes's layout.
func graphBytes(g *graph.Graph, order Order, minAdj, m byte) []byte {
	data := []byte{byte(g.N() - 1), byte(order), minAdj - 1, m}
	for _, e := range g.Edges() {
		data = append(data, byte(e.U), byte(e.V))
	}
	return data
}

// FuzzGrowMatchesReference: on any small graph, with any order,
// MinAdjacency and m, the plan GrowSeq pushes into a Plan is the rescan
// reference's, field by field.
func FuzzGrowMatchesReference(f *testing.F) {
	f.Add(graphBytes(gen.ErdosRenyi(40, 0.2, 1), OrderDegreeAsc, 1, 9))
	f.Add(graphBytes(gen.HolmeKim(60, 4, 0.7, 2), OrderID, 2, 14))
	f.Add(graphBytes(gen.BarabasiAlbert(50, 3, 3), OrderRandom, 3, 20))
	f.Add(graphBytes(gen.ErdosRenyi(64, 0.5, 4), OrderDegreeAsc, 2, 40))
	f.Add(graphBytes(graph.Complete(12), OrderID, 1, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, opts := growFromBytes(data)
		feasible, _ := Cut(g, m)
		got, want := pushed(t, len(feasible), GrowSeq(g, feasible, m, opts)), referenceGrow(g, feasible, m, opts)
		if len(got) != len(want) {
			t.Fatalf("m=%d %+v: %d blocks, want %d", m, opts, len(got), len(want))
		}
		for i := range want {
			requireSameMembership(t, fmt.Sprintf("m=%d %+v block %d", m, opts, i), &got[i], &want[i])
		}
	})
}

// TestPlanDigestSeesOneFlip: the plan digest moves when one node changes role,
// when one member changes, and when a node moves to the next block, and
// holds still on a copy of the same plan.
func TestPlanDigestSeesOneFlip(t *testing.T) {
	g := gen.HolmeKim(300, 5, 0.7, 13)
	m := 24
	feasible, _ := Cut(g, m)
	plan := func() []Block { return Grow(g, feasible, m, Options{}) }
	base := sealedPlan(plan()).Digest()
	if sealedPlan(plan()).Digest() != base {
		t.Fatal("the same plan digests differently")
	}
	flips := map[string]func([]Block){
		"border→visited": func(bs []Block) {
			for i := range bs {
				if b := &bs[i]; len(b.Border) > 0 {
					b.Visited = append(slices.Clone(b.Visited), b.Border[0])
					b.Border = b.Border[1:]
					return
				}
			}
		},
		"one member": func(bs []Block) {
			orig := slices.Clone(bs[0].Orig)
			orig[len(orig)-1]++
			bs[0].Orig = orig
		},
		"kernel to the next block": func(bs []Block) {
			bs[0].Kernel = bs[0].Kernel[:len(bs[0].Kernel)-1]
			bs[1].Kernel = append(slices.Clone(bs[1].Kernel), 0)
		},
	}
	for name, flip := range flips {
		bs := plan()
		flip(bs)
		if sealedPlan(bs).Digest() == base {
			t.Errorf("%s: plan digest unchanged", name)
		}
	}
}
