// Package diskgraph stores a graph's adjacency on disk and serves
// neighbourhood reads on demand, keeping only the degree/offset arrays in
// memory (O(N), not O(N+M)). It is the substrate for out-of-core maximal
// clique enumeration (package extmce): the paper's premise is that "the
// size of the input network often exceeds the available memory" (§7), and
// the external-memory line of work it builds on (ExtMCE [8], EmMCE [10])
// processes exactly such graphs block by block.
//
// On-disk layout (little endian):
//
//	magic "MCEG"            4 bytes
//	n                       int64
//	offsets[n+1]            int64 each (byte offsets into the list section)
//	neighbour lists         int32 each, node 0 first, each list ascending
package diskgraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"

	"mce/internal/durable"
	"mce/internal/graph"
)

var magic = [4]byte{'M', 'C', 'E', 'G'}

// Write serialises g to path in the disk-graph format. The file lands
// atomically (durable.AtomicReplace): a crash leaves path absent or
// complete, never half a graph.
func Write(path string, g *graph.Graph) error {
	err := durable.AtomicReplace(durable.OSFS{}, path, func(f io.Writer) error {
		// The offset table is the graph's own CSR offsets in bytes into the
		// list section rather than entries.
		offsets, _ := g.CSR()
		table := make([]int64, len(offsets))
		for v, off := range offsets {
			table[v] = 4 * int64(off)
		}
		w := bufio.NewWriter(f)
		w.Write(magic[:])
		binary.Write(w, binary.LittleEndian, int64(g.N()))
		binary.Write(w, binary.LittleEndian, table)
		for v := int32(0); v < int32(g.N()); v++ {
			binary.Write(w, binary.LittleEndian, g.Neighbors(v))
		}
		return w.Flush() // a bufio.Writer's first write error sticks until Flush
	})
	if err != nil {
		return fmt.Errorf("diskgraph: %w", err)
	}
	return nil
}

// Graph is a read-only disk-resident graph. It is safe for concurrent
// readers. Close it when done.
type Graph struct {
	f        *os.File
	n        int
	offsets  []int64 // byte offsets into the list section, len n+1
	listBase int64   // file offset where the list section starts
	// reads counts ReadNeighbors calls, for I/O accounting in tests and
	// experiments.
	reads atomic.Int64
}

// headerLen is the magic plus the node count.
const headerLen = 4 + 8

// Open maps a disk graph for reading; the offset table is loaded eagerly
// (O(N) memory), neighbour lists stay on disk. The header is not trusted:
// the node count must fit the file before anything is sized by it, and the
// offset table must tile the list section exactly — starting at 0, never
// decreasing, 4-byte aligned, ending at the section's length — so Degree is
// never negative and no read reaches past the file.
func Open(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskgraph: %w", err)
	}
	g, err := open(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskgraph: %s: %w", path, err)
	}
	return g, nil
}

func open(f *os.File) (*Graph, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, errors.New("not a disk graph (bad magic)")
	}
	n := int64(binary.LittleEndian.Uint64(hdr[4:]))
	// Subtraction form: n comes straight from the file, and 8*(n+1) can
	// wrap.
	if n < 0 || n > 1<<31 || n+1 > (st.Size()-headerLen)/8 {
		return nil, fmt.Errorf("node count %d does not fit a %d-byte file", n, st.Size())
	}
	listBase := headerLen + 8*(n+1)
	offsets := make([]int64, n+1)
	if err := binary.Read(bufio.NewReader(f), binary.LittleEndian, offsets); err != nil {
		return nil, fmt.Errorf("offsets: %w", err)
	}
	prev := int64(0)
	for v, off := range offsets {
		if off < prev || off%4 != 0 || (v == 0 && off != 0) {
			return nil, fmt.Errorf("corrupt offset table at node %d (offset %d after %d)", v, off, prev)
		}
		prev = off
	}
	if prev != st.Size()-listBase {
		return nil, fmt.Errorf("offset table ends at %d, the list section holds %d bytes", prev, st.Size()-listBase)
	}
	return &Graph{f: f, n: int(n), offsets: offsets, listBase: listBase}, nil
}

// Close releases the underlying file.
func (g *Graph) Close() error { return g.f.Close() }

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	return int(g.offsets[g.n] / 8) // bytes / 4 per endpoint / 2 per edge
}

// Degree returns deg(v) without touching the disk.
func (g *Graph) Degree(v int32) int {
	return int((g.offsets[v+1] - g.offsets[v]) / 4)
}

// Degrees returns the whole degree sequence without disk reads.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = g.Degree(int32(v))
	}
	return out
}

// ReadNeighbors fetches v's adjacency list from disk into buf (reused when
// large enough) and returns it, ascending.
func (g *Graph) ReadNeighbors(v int32, buf []int32) ([]int32, error) {
	deg := g.Degree(v)
	if cap(buf) < deg {
		buf = make([]int32, deg)
	}
	buf = buf[:deg]
	if deg == 0 {
		return buf, nil
	}
	raw := make([]byte, 4*deg)
	if _, err := g.f.ReadAt(raw, g.listBase+g.offsets[v]); err != nil {
		return nil, fmt.Errorf("diskgraph: reading node %d: %w", v, err)
	}
	for i := range buf {
		u := int32(binary.LittleEndian.Uint32(raw[4*i:]))
		if u < 0 || int(u) >= g.n {
			return nil, fmt.Errorf("diskgraph: node %d lists neighbour %d outside [0,%d)", v, u, g.n)
		}
		buf[i] = u
	}
	g.reads.Add(1)
	return buf, nil
}

// Reads reports how many neighbourhood fetches have hit the disk.
func (g *Graph) Reads() int64 { return g.reads.Load() }

// LoadClosedNeighborhood materialises the subgraph induced by the kernels
// and all their neighbours as an in-memory graph (plus the local→global
// mapping, ascending, and the local IDs of the kernels), reading only the
// adjacency lists of the involved nodes. This is the unit of I/O of the out-of-core
// pipeline: one block's worth of network.
func (g *Graph) LoadClosedNeighborhood(kernels []int32) (*graph.Graph, []int32, []int32, error) {
	inSet := map[int32]int32{}
	var orig []int32
	add := func(v int32) {
		if _, ok := inSet[v]; !ok {
			inSet[v] = int32(len(orig))
			orig = append(orig, v)
		}
	}
	var buf []int32
	var err error
	adj := make(map[int32][]int32, len(kernels))
	for _, k := range kernels {
		add(k)
		buf, err = g.ReadNeighbors(k, buf)
		if err != nil {
			return nil, nil, nil, err
		}
		cp := make([]int32, len(buf))
		copy(cp, buf)
		adj[k] = cp
		for _, u := range cp {
			add(u)
		}
	}
	// Local IDs follow the global ones, as a block's Orig must.
	slices.Sort(orig)
	for local, v := range orig {
		inSet[v] = int32(local)
	}
	// Edges among the selected nodes: kernel adjacencies are known; the
	// border–border edges require reading the border nodes' lists too
	// (they are needed for induced completeness, exactly as the in-memory
	// BLOCKS does).
	b := graph.NewBuilder(len(orig))
	for _, v := range orig {
		list, ok := adj[v]
		if !ok {
			buf, err = g.ReadNeighbors(v, buf)
			if err != nil {
				return nil, nil, nil, err
			}
			list = buf
		}
		lv := inSet[v]
		for _, u := range list {
			if lu, ok := inSet[u]; ok && lv < lu {
				b.AddEdge(lv, lu)
			}
		}
	}
	kernelLocal := make([]int32, len(kernels))
	for i, k := range kernels {
		kernelLocal[i] = inSet[k]
	}
	return b.Build(), orig, kernelLocal, nil
}

// LoadInduced materialises the subgraph induced by nodes (used for the hub
// recursion, whose node set is small).
func (g *Graph) LoadInduced(nodes []int32) (*graph.Graph, []int32, error) {
	idx := make(map[int32]int32, len(nodes))
	orig := make([]int32, 0, len(nodes))
	for _, v := range nodes {
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = int32(len(orig))
		orig = append(orig, v)
	}
	b := graph.NewBuilder(len(orig))
	var buf []int32
	var err error
	for _, v := range orig {
		buf, err = g.ReadNeighbors(v, buf)
		if err != nil {
			return nil, nil, err
		}
		lv := idx[v]
		for _, u := range buf {
			if lu, ok := idx[u]; ok && lv < lu {
				b.AddEdge(lv, lu)
			}
		}
	}
	return b.Build(), orig, nil
}
