// Package extmce enumerates the maximal cliques of a disk-resident graph
// without ever loading it whole: the out-of-core regime of ExtMCE [8] and
// EmMCE [10] that motivates the paper, driven by the paper's own two-level
// hub-aware scheme so that completeness survives arbitrary memory budgets.
//
// The pipeline mirrors FIND-MAX-CLIQUES with disk-aware phases:
//
//  1. CUT needs only the degree sequence, which the disk format serves
//     without touching the adjacency lists;
//  2. feasible nodes are chunked so each chunk's closed neighbourhood is
//     guaranteed (by the degree-sum bound Σ(deg+1) ≤ m) to fit a block;
//     one block at a time is materialised from disk and analysed in
//     memory;
//  3. the hub-induced subgraph — small on scale-free networks — is loaded
//     and recursed on with the in-memory engine;
//  4. surviving hub cliques are filtered by the Lemma 1 extension test,
//     evaluated with targeted disk reads.
//
// Peak memory is one block plus the hub subgraph, never the input graph.
package extmce

import (
	"fmt"
	"sort"

	"mce/internal/bitset"
	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/diskgraph"
	"mce/internal/mcealg"
)

// Options configures the out-of-core enumeration.
type Options struct {
	// BlockSize is m; 0 derives it from BlockRatio.
	BlockSize int
	// BlockRatio sets m = ceil(ratio × max degree); 0 means 0.5.
	BlockRatio float64
	// Combo pins the per-block MCE combination; the zero value selects
	// Tomita over BitSets, a robust default for dense blocks.
	Combo mcealg.Combo
	// Inner configures the in-memory engine used for the hub recursion.
	Inner core.Options
	// Prefetch loads up to this many blocks ahead of the analysis,
	// overlapping disk I/O with CPU work. 0 disables prefetching (at most
	// one block resident); emission order is identical either way. Memory
	// grows to Prefetch+1 blocks.
	Prefetch int
}

// Stats summarises an out-of-core run.
type Stats struct {
	// BlockSize is the m used; MaxDegree the graph's maximum degree.
	BlockSize, MaxDegree int
	// Feasible and Hubs count the top-level CUT partition.
	Feasible, Hubs int
	// Blocks is the number of disk-loaded blocks.
	Blocks int
	// TotalCliques and HubCliques mirror the in-memory engine's stats.
	TotalCliques, HubCliques int
	// DiskReads counts adjacency-list fetches.
	DiskReads int64
}

// Enumerate emits every maximal clique of the disk graph (ascending IDs,
// slice reused) with the hub recursion level it was found at.
func Enumerate(dg *diskgraph.Graph, opts Options, emit func(clique []int32, level int)) (*Stats, error) {
	n := dg.N()
	if n == 0 {
		return nil, fmt.Errorf("extmce: graph has no nodes")
	}
	degrees := dg.Degrees()
	maxDeg := 0
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	m := opts.BlockSize
	if m <= 0 {
		ratio := opts.BlockRatio
		if ratio <= 0 {
			ratio = 0.5
		}
		m = int(ratio*float64(maxDeg) + 0.999)
	}
	if m < 2 {
		m = 2
	}
	combo := opts.Combo
	if combo == (mcealg.Combo{}) {
		combo = mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	}
	inner := opts.Inner
	if inner.BlockSize == 0 && inner.BlockRatio == 0 {
		// Recurse with the same m, as Algorithm 1 does.
		inner.BlockSize = m
	}

	// First-level decomposition from degrees alone.
	var feasible, hubs []int32
	for v := int32(0); v < int32(n); v++ {
		if degrees[v] < m {
			feasible = append(feasible, v)
		} else {
			hubs = append(hubs, v)
		}
	}
	stats := &Stats{
		BlockSize: m, MaxDegree: maxDeg,
		Feasible: len(feasible), Hubs: len(hubs),
	}

	// Degenerate case: everything is a hub. Load the whole graph — the
	// caller asked for an m below the minimum degree, so there is no
	// memory-respecting decomposition; completeness still wins.
	if len(feasible) == 0 {
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		sub, _, err := dg.LoadInduced(all)
		if err != nil {
			return nil, err
		}
		res, err := core.FindMaxCliques(sub, inner)
		if err != nil {
			return nil, err
		}
		for _, c := range res.Cliques {
			emit(c, 0)
		}
		stats.TotalCliques = len(res.Cliques)
		stats.DiskReads = dg.Reads()
		return stats, nil
	}

	// Chunk the feasible nodes in increasing degree order so that the
	// degree-sum bound keeps each block within m nodes.
	order := append([]int32(nil), feasible...)
	sort.Slice(order, func(i, j int) bool {
		if degrees[order[i]] != degrees[order[j]] {
			return degrees[order[i]] < degrees[order[j]]
		}
		return order[i] < order[j]
	})
	feasSet := bitset.FromSlice(n, feasible)

	// Partition the feasible order into chunks up front; chunking depends
	// only on degrees, so the visited classification below can be computed
	// from chunk indices without materialising anything.
	var chunks [][]int32
	var chunk []int32
	budget := 0
	for _, v := range order {
		need := degrees[v] + 1
		if budget+need > m && len(chunk) > 0 {
			chunks = append(chunks, chunk)
			chunk = nil
			budget = 0
		}
		chunk = append(chunk, v)
		budget += need
	}
	if len(chunk) > 0 {
		chunks = append(chunks, chunk)
	}
	// kernelChunk[v] is the index of the chunk that owns feasible node v;
	// a node is "visited" in every later chunk's block.
	kernelChunk := make([]int32, n)
	for i := range kernelChunk {
		kernelChunk[i] = -1
	}
	for ci, ch := range chunks {
		for _, v := range ch {
			kernelChunk[v] = int32(ci)
		}
	}

	if err := analyzeChunks(dg, chunks, kernelChunk, feasSet, combo, opts.Prefetch, stats, emit); err != nil {
		return nil, err
	}

	if len(hubs) == 0 {
		stats.DiskReads = dg.Reads()
		return stats, nil
	}

	// Hub recursion: load the (small) hub-induced subgraph and run the
	// in-memory engine on it, then keep the survivors of the Lemma 1
	// extension test, evaluated with targeted disk reads.
	sub, orig, err := dg.LoadInduced(hubs)
	if err != nil {
		return nil, err
	}
	res, err := core.FindMaxCliques(sub, inner)
	if err != nil {
		return nil, err
	}
	translated := make([]int32, 0, 64)
	for i, c := range res.Cliques {
		translated = translated[:0]
		for _, v := range c {
			translated = append(translated, orig[v])
		}
		ext, err := extensibleOnDisk(dg, translated, degrees, m)
		if err != nil {
			return nil, err
		}
		if !ext {
			emit(translated, 1+res.Level[i])
			stats.TotalCliques++
			stats.HubCliques++
		}
	}
	stats.DiskReads = dg.Reads()
	return stats, nil
}

// loadedBlock is one materialised chunk, ready for analysis.
type loadedBlock struct {
	blk decomp.Block
	err error
}

// analyzeChunks materialises and analyses the chunks in order. With
// Prefetch > 0 a loader goroutine stays ahead of the analysis, overlapping
// disk I/O with CPU work; blocks are still analysed (and cliques emitted)
// strictly in chunk order, so output is identical to the serial path.
// kernelChunk holds each node's chunk index.
func analyzeChunks(dg *diskgraph.Graph, chunks [][]int32, kernelChunk []int32, feasSet *bitset.Set, combo mcealg.Combo, prefetch int, stats *Stats, emit func([]int32, int)) error {
	load := func(ci int) loadedBlock {
		chunkIdx := int32(ci)
		kernels := chunks[ci]
		sub, orig, kernelLocal, err := dg.LoadClosedNeighborhood(kernels)
		if err != nil {
			return loadedBlock{err: err}
		}
		blk := decomp.Block{Graph: sub, Orig: orig, Kernel: kernelLocal}
		for local, gnode := range orig {
			owner := kernelChunk[gnode]
			switch {
			case owner == chunkIdx:
				// current kernel, already classified
			case owner >= 0 && owner < chunkIdx && feasSet.Has(gnode):
				blk.Visited = append(blk.Visited, int32(local))
			default:
				blk.Border = append(blk.Border, int32(local))
			}
		}
		return loadedBlock{blk: blk}
	}

	analyze := func(lb loadedBlock) error {
		if lb.err != nil {
			return lb.err
		}
		found := 0
		err := decomp.AnalyzeBlock(&lb.blk, combo, func(c []int32) {
			emit(c, 0)
			found++
		})
		if err != nil {
			return err
		}
		stats.Blocks++
		stats.TotalCliques += found
		return nil
	}

	if prefetch <= 0 {
		for ci := range chunks {
			if err := analyze(load(ci)); err != nil {
				return err
			}
		}
		return nil
	}

	loaded := make(chan loadedBlock, prefetch)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(loaded)
		for ci := range chunks {
			select {
			case loaded <- load(ci):
			case <-done:
				// The consumer bailed (analysis error): stop loading so the
				// goroutine exits instead of blocking on a full channel.
				return
			}
		}
	}()
	for lb := range loaded {
		if err := analyze(lb); err != nil {
			return err
		}
	}
	return nil
}

// extensibleOnDisk reports whether some feasible node (degree < m) is
// adjacent to every member of the clique, reading only the pivot member's
// list plus one list per feasible candidate.
func extensibleOnDisk(dg *diskgraph.Graph, clique []int32, degrees []int, m int) (bool, error) {
	pivot := clique[0]
	for _, v := range clique[1:] {
		if degrees[v] < degrees[pivot] {
			pivot = v
		}
	}
	nbrs, err := dg.ReadNeighbors(pivot, nil)
	if err != nil {
		return false, err
	}
	var wBuf []int32
	for _, w := range nbrs {
		if degrees[w] >= m {
			continue // only feasible extenders matter (Lemma 1 case c)
		}
		wBuf, err = dg.ReadNeighbors(w, wBuf)
		if err != nil {
			return false, err
		}
		if adjacentToAllSorted(wBuf, clique, w) {
			return true, nil
		}
	}
	return false, nil
}

// adjacentToAllSorted reports whether the sorted adjacency list covers
// every clique member other than w itself.
func adjacentToAllSorted(adj, clique []int32, w int32) bool {
	for _, v := range clique {
		if v == w {
			return false
		}
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		if i == len(adj) || adj[i] != v {
			return false
		}
	}
	return true
}
