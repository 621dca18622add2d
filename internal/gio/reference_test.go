package gio

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/runlog"
)

// referenceRead is the loader the byte reader replaced, kept as the
// reference it must match: a bufio.Scanner line, strings.TrimSpace and
// strings.Fields, a []graph.Edge of the whole file, then one global edge
// sort, dedup, count and fill into a CSR.
func referenceRead(r io.Reader, triples bool) (*graph.Graph, *LabelMap, error) {
	m := NewLabelMap()
	var edges []graph.Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		var e graph.Edge
		switch {
		case triples && len(fields) != 3:
			return nil, nil, fmt.Errorf("gio: line %d: triple format wants 3 fields, got %d", lineNo, len(fields))
		case triples:
			e = graph.Edge{U: m.ID(fields[0]), V: m.ID(fields[2])}
		case len(fields) < 2:
			return nil, nil, fmt.Errorf("gio: line %d: want at least 2 fields, got %q", lineNo, line)
		default:
			e = graph.Edge{U: m.ID(fields[0]), V: m.ID(fields[1])}
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U != e.V {
			edges = append(edges, e)
		}
	}
	if err := sc.Err(); err != nil && triples {
		return nil, nil, fmt.Errorf("gio: reading triples: %w", err)
	} else if err != nil {
		return nil, nil, fmt.Errorf("gio: reading edge list: %w", err)
	}
	slices.SortFunc(edges, func(a, c graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, c.U), cmp.Compare(a.V, c.V))
	})
	edges = slices.Compact(edges)
	n := m.Len()
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	flat := make([]int32, 2*len(edges))
	cursor := slices.Clone(offsets[:n])
	for _, e := range edges {
		flat[cursor[e.U]] = e.V
		cursor[e.U]++
		flat[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g, err := graph.FromCSR(offsets, flat)
	return g, m, err
}

// relabelledDenseCore is G(226, 0.5) with its nodes renamed by a seeded
// permutation, the benchmark's dense graph.
func relabelledDenseCore(seed int64) *graph.Graph {
	base := gen.ErdosRenyi(226, 0.5, 2016)
	perm := rand.New(rand.NewSource(seed)).Perm(base.N())
	b := graph.NewBuilder(base.N())
	for _, e := range base.Edges() {
		b.AddEdge(int32(perm[e.U]), int32(perm[e.V]))
	}
	return b.Build()
}

// TestLoadSaveMatchesReference: Load(Save(g)) of the benchmark's graphs, in
// both formats, has the digest and the labels referenceRead gives.
func TestLoadSaveMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("saves and loads 50k-node graphs")
	}
	dir := t.TempDir()
	for name, g := range map[string]*graph.Graph{
		"hk50k":     gen.HolmeKim(50000, 8, 0.7, 42),
		"hk40k":     gen.HolmeKim(40000, 8, 0.7, 42),
		"denseCore": relabelledDenseCore(42),
	} {
		for _, ext := range []string{".txt", ".triples"} {
			p := filepath.Join(dir, name+ext)
			if err := SaveFile(p, g); err != nil {
				t.Fatal(err)
			}
			got, m, err := LoadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			want, rm, err := referenceRead(f, ext == ".triples")
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if runlog.GraphDigest(got) != runlog.GraphDigest(want) || got.M() != g.M() {
				t.Fatalf("%s%s: digest %x (m=%d), reference %x (m=%d)", name, ext,
					runlog.GraphDigest(got), got.M(), runlog.GraphDigest(want), want.M())
			}
			if !slices.Equal(m.labels, rm.labels) {
				t.Fatalf("%s%s: label order differs from the reference", name, ext)
			}
		}
	}
}

// TestSaveBytesUnchanged pins the bytes every writer emits to those the
// fmt-per-edge writers produced.
func TestSaveBytesUnchanged(t *testing.T) {
	g := gen.HolmeKim(300, 4, 0.6, 3)
	dir := t.TempDir()
	want := map[string]string{
		"g.txt":               "14db17d50cd38b5913dead862d03fc7f7cf688b5cbd098b623dffccea4ffd072",
		"g.triples":           "d47c3d5c8d867d90265174b9447e061560ec8d7d7ae721dcbae7b279f831a083",
		"p/part-0000.triples": "75049e7983974e9f67bc927e73bb4a5c14e26b1df38afaac3e336a31fef1feeb",
		"p/part-0001.triples": "914d312aad2f6f22da2047bb8ff320af924060bd00ae2c13e86d58d79cde8497",
		"p/part-0002.triples": "2a46b8798ef2ac2a9002544bb615fd959d8b8a4057a9e837d4b90951b4093410",
	}
	for _, name := range []string{"g.txt", "g.triples"} {
		if err := SaveFile(filepath.Join(dir, name), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := WritePartitioned(filepath.Join(dir, "p"), g, 3); err != nil {
		t.Fatal(err)
	}
	for name, sum := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", name, got, sum)
		}
	}
}

func TestHashLabelMatchesFNV(t *testing.T) {
	for _, label := range []string{"", "x", "0", "12345", "alice", "h\xc2\xa0\xff", strings.Repeat("z", 300)} {
		h := fnv.New64a()
		h.Write([]byte(label))
		if got, want := HashLabel(label), h.Sum64(); got != want {
			t.Errorf("HashLabel(%q) = %d, hash/fnv gives %d", label, got, want)
		}
	}
}

// TestLoadAllocs gates the reader's allocation by counts, which repeat
// exactly from run to run: a file whose every line is repeated four times
// costs at most 16 more mallocs than the file itself — the growth of the
// edge buffer, nothing per line — and one load allocates at most eight
// times the file's size.
func TestLoadAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, gen.HolmeKim(20000, 8, 0.7, 42)); err != nil {
		t.Fatal(err)
	}
	var four bytes.Buffer
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		for i := 0; i < 4; i++ {
			four.Write(line)
		}
	}
	dir := t.TempDir()
	once, quad := filepath.Join(dir, "once.txt"), filepath.Join(dir, "four.txt")
	if err := os.WriteFile(once, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quad, four.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func(p string) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := LoadFile(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	m1, b1 := load(once)
	m4, _ := load(quad)
	if m4 > m1+16 {
		t.Errorf("four copies of each line cost %d mallocs, one %d: more than 16 apart", m4, m1)
	}
	if size := uint64(buf.Len()); b1 > 8*size {
		t.Errorf("loading %d bytes allocated %d (%.1f×), want ≤ 8×", size, b1, float64(b1)/float64(size))
	}
	t.Logf("file %d B: %d mallocs, %d B allocated (%.2f×); four copies: %d mallocs", buf.Len(), m1, b1, float64(b1)/float64(buf.Len()), m4)
}
