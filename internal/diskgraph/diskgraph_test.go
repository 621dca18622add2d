package diskgraph

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"mce/internal/gen"
	"mce/internal/graph"
)

func roundTrip(t *testing.T, g *graph.Graph) *Graph {
	t.Helper()
	p := filepath.Join(t.TempDir(), "g.mceg")
	if err := Write(p, g); err != nil {
		t.Fatal(err)
	}
	dg, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dg.Close() })
	return dg
}

func TestFormatRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(200, 0.1, 3)
	dg := roundTrip(t, g)
	if dg.N() != g.N() || dg.M() != g.M() {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", dg.N(), dg.M(), g.N(), g.M())
	}
	var buf []int32
	var err error
	for v := int32(0); v < int32(g.N()); v++ {
		buf, err = dg.ReadNeighbors(v, buf)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Neighbors(v)
		if len(buf) != len(want) {
			t.Fatalf("deg(%d) = %d, want %d", v, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("neighbors(%d)[%d] = %d, want %d", v, i, buf[i], want[i])
			}
		}
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	dg := roundTrip(t, graph.Empty(5))
	if dg.N() != 5 || dg.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", dg.N(), dg.M())
	}
	nbrs, err := dg.ReadNeighbors(3, nil)
	if err != nil || len(nbrs) != 0 {
		t.Fatalf("isolated node neighbours = %v, %v", nbrs, err)
	}
	degs := dg.Degrees()
	for v, d := range degs {
		if d != 0 {
			t.Fatalf("degree(%d) = %d", v, d)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a graph at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("MC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestOpenDistrustsHeader: a file whose header or offset table lies — about
// the node count, the order, alignment or extent of the lists — is refused
// at Open with an error; a neighbour outside the node range is refused when
// it is read. None of it may panic or size an allocation by the lie (the
// 12-byte file below asks for a 16 GiB offset table).
func TestOpenDistrustsHeader(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	// Path 0–1–2–3: offsets 0,4,12,20,24, then six neighbour entries.
	if err := Write(good, fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	const table = 4 + 8 // file offset of the offset table
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	hugeN := append([]byte("MCEG"), make([]byte, 8)...)
	put64(hugeN, 4, 1<<31)
	cases := map[string][]byte{
		"node count over the file (12 bytes)": hugeN,
		"node count negative":                 mutated(image, func(b []byte) { put64(b, 4, 1<<63) }),
		"node count one too many":             mutated(image, func(b []byte) { put64(b, 4, 5) }),
		"node count bit flip":                 mutated(image, func(b []byte) { b[4+3] ^= 0x40 }),
		"truncated inside the table":          image[:table+20],
		"truncated inside the lists":          image[:len(image)-4],
		"trailing bytes":                      append(append([]byte(nil), image...), 0, 0, 0, 0),
		"first offset not zero":               mutated(image, func(b []byte) { put64(b, table, 4) }),
		"offsets shuffled":                    mutated(image, func(b []byte) { put64(b, table+8, 12); put64(b, table+16, 4) }),
		"offset negative":                     mutated(image, func(b []byte) { put64(b, table+8, ^uint64(3)) }),
		"offset unaligned":                    mutated(image, func(b []byte) { put64(b, table+8, 5) }),
		"last offset short of the lists":      mutated(image, func(b []byte) { put64(b, table+32, 20) }),
		"last offset past the lists":          mutated(image, func(b []byte) { put64(b, table+32, 1<<40) }),
	}
	for name, data := range cases {
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := Open(p); err == nil {
			g.Close()
			t.Errorf("%s: opened", name)
		}
	}

	lists := table + 8*5
	for name, v := range map[string]uint32{"neighbour at n": 4, "neighbour negative": 1 << 31} {
		p := filepath.Join(dir, "badlist")
		if err := os.WriteFile(p, mutated(image, func(b []byte) { binary.LittleEndian.PutUint32(b[lists:], v) }), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(p)
		if err != nil {
			t.Fatalf("%s: %v (the table is intact)", name, err)
		}
		if _, err := g.ReadNeighbors(0, nil); err == nil {
			t.Errorf("%s: read back", name)
		}
		if _, _, err := g.LoadInduced([]int32{0, 1}); err == nil {
			t.Errorf("%s: induced through the bad list", name)
		}
		g.Close()
	}
}

// mutated returns a copy of image after f has edited it.
func mutated(image []byte, f func([]byte)) []byte {
	b := append([]byte(nil), image...)
	f(b)
	return b
}

func TestLoadInducedMatchesGraph(t *testing.T) {
	g := gen.HolmeKim(150, 4, 0.6, 9)
	dg := roundTrip(t, g)
	nodes := []int32{3, 17, 42, 99, 3} // duplicate collapses
	sub, orig, err := dg.LoadInduced(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 || len(orig) != 4 {
		t.Fatalf("induced n=%d orig=%v", sub.N(), orig)
	}
	for a := int32(0); a < int32(sub.N()); a++ {
		for b := a + 1; b < int32(sub.N()); b++ {
			if sub.HasEdge(a, b) != g.HasEdge(orig[a], orig[b]) {
				t.Fatalf("induced edge %d-%d mismatch", orig[a], orig[b])
			}
		}
	}
}

func TestLoadClosedNeighborhood(t *testing.T) {
	g := gen.HolmeKim(150, 4, 0.6, 11)
	dg := roundTrip(t, g)
	kernels := []int32{5, 6}
	sub, orig, kernelLocal, err := dg.LoadClosedNeighborhood(kernels)
	if err != nil {
		t.Fatal(err)
	}
	if len(kernelLocal) != 2 {
		t.Fatalf("kernelLocal = %v", kernelLocal)
	}
	// Every kernel neighbour is present, and the induced edges are exact.
	have := map[int32]bool{}
	for _, v := range orig {
		have[v] = true
	}
	for _, k := range kernels {
		if !have[k] {
			t.Fatalf("kernel %d missing from block", k)
		}
		for _, u := range g.Neighbors(k) {
			if !have[u] {
				t.Fatalf("kernel %d neighbour %d missing", k, u)
			}
		}
	}
	for a := int32(0); a < int32(sub.N()); a++ {
		for b := a + 1; b < int32(sub.N()); b++ {
			if sub.HasEdge(a, b) != g.HasEdge(orig[a], orig[b]) {
				t.Fatalf("block edge %d-%d mismatch", orig[a], orig[b])
			}
		}
	}
}

// Property: the disk format preserves random graphs exactly.
func TestQuickFormatFidelity(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(int(seed%50)+5, 0.25, seed)
		dir, err := os.MkdirTemp("", "mcedg")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		p := filepath.Join(dir, "g.mceg")
		if err := Write(p, g); err != nil {
			return false
		}
		dg, err := Open(p)
		if err != nil {
			return false
		}
		defer dg.Close()
		if dg.N() != g.N() || dg.M() != g.M() {
			return false
		}
		var buf []int32
		for v := int32(0); v < int32(g.N()); v++ {
			buf, err = dg.ReadNeighbors(v, buf)
			if err != nil {
				return false
			}
			want := g.Neighbors(v)
			if len(buf) != len(want) {
				return false
			}
			for i := range want {
				if buf[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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
