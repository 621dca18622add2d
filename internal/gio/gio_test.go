package gio

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/graph"
)

func TestLabelMap(t *testing.T) {
	m := NewLabelMap()
	a := m.ID("alice")
	b := m.ID("bob")
	if a == b {
		t.Fatalf("distinct labels share an ID")
	}
	if m.ID("alice") != a {
		t.Fatalf("ID not stable")
	}
	if m.Label(a) != "alice" || m.Label(b) != "bob" {
		t.Fatalf("Label round trip broken")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if id, ok := m.Lookup("bob"); !ok || id != b {
		t.Fatalf("Lookup(bob) = %d,%v", id, ok)
	}
	if _, ok := m.Lookup("carol"); ok {
		t.Fatalf("Lookup of unseen label succeeded")
	}
}

func TestHashLabelDeterministic(t *testing.T) {
	if HashLabel("x") != HashLabel("x") {
		t.Fatalf("HashLabel not deterministic")
	}
	if HashLabel("x") == HashLabel("y") {
		t.Fatalf("suspicious collision between x and y")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% also comment
a b
b c

a c
a b
`
	g, m, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3,3", g.N(), g.M())
	}
	ia, _ := m.Lookup("a")
	ib, _ := m.Lookup("b")
	ic, _ := m.Lookup("c")
	if !g.HasEdge(ia, ib) || !g.HasEdge(ib, ic) || !g.HasEdge(ia, ic) {
		t.Fatalf("edges missing")
	}
}

func TestReadEdgeListExtraColumns(t *testing.T) {
	// SNAP files sometimes carry weights or timestamps; extra fields are
	// tolerated.
	g, _, err := ReadEdgeList(strings.NewReader("0 1 17 2020\n1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	for _, in := range []string{
		"0 1\nonlyone\n",
		"0 1\n" + strings.Repeat("7", maxLine+1), // past the line cap
	} {
		_, _, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Fatalf("malformed line accepted")
		}
		if !strings.HasPrefix(err.Error(), "gio: line 2:") {
			t.Fatalf("error lacks line number: %v", err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := graph.Complete(5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed graph: %v -> %v", g, g2)
	}
}

func TestReadTriples(t *testing.T) {
	in := "h1 e0 h2\nh2 e1 h3\nh1 e2 h3\n"
	g, _, err := ReadTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3,3", g.N(), g.M())
	}
}

func TestReadTriplesMalformed(t *testing.T) {
	_, _, err := ReadTriples(strings.NewReader("a e0 b\nc d\n"))
	if err == nil {
		t.Fatalf("two-field triple accepted")
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	g := fromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	var buf bytes.Buffer
	if err := WriteTriples(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("triples round trip changed graph: %v -> %v", g, g2)
	}
}

func TestWriteTriplesCustomLabels(t *testing.T) {
	g := fromEdges(2, []graph.Edge{{U: 0, V: 1}})
	var buf bytes.Buffer
	err := WriteTriples(&buf, g, func(v int32) string {
		return string(rune('a' + v))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := HashLabel("a")
	if !strings.Contains(buf.String(), strings.TrimSpace(strings.Split(buf.String(), " ")[0])) {
		t.Fatalf("unexpected output %q", buf.String())
	}
	first := strings.Split(buf.String(), " ")[0]
	if first != itoa(want) {
		t.Fatalf("first token = %s, want hash of \"a\" = %d", first, want)
	}
}

func itoa(u uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	return string(b[i:])
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := graph.Complete(4)

	for _, name := range []string{"g.txt", "g.triples"} {
		p := filepath.Join(dir, name)
		if err := SaveFile(p, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		g2, _, err := LoadFile(p)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if g2.N() != 4 || g2.M() != 6 {
			t.Fatalf("%s: n=%d m=%d, want 4,6", name, g2.N(), g2.M())
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteErrorsReported: a failing writer surfaces from both writers, the
// first write's error stuck in the buffer until Flush.
func TestWriteErrorsReported(t *testing.T) {
	g := graph.Complete(300) // more than one buffer's worth of lines
	if err := WriteEdgeList(failWriter{}, g); err == nil {
		t.Error("WriteEdgeList to a failing writer succeeded")
	}
	if err := WriteTriples(failWriter{}, g, nil); err == nil {
		t.Error("WriteTriples to a failing writer succeeded")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir", "g.txt"), graph.Empty(1)); err == nil {
		t.Fatalf("unwritable path accepted")
	}
	_ = os.Remove("never-created")
}

// Property: writing any random graph as an edge list and reading it back
// yields an isomorphic graph under the identity on dense IDs (labels are the
// decimal IDs, so the relabelling is the identity permutation by first-seen
// order of edges — compare as edge sets instead).
func TestQuickEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, m, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g2.M() != g.M() {
			return false
		}
		// Every original edge must exist under the label mapping.
		for _, e := range g.Edges() {
			u, ok1 := m.Lookup(itoa(uint64(e.U)))
			v, ok2 := m.Lookup(itoa(uint64(e.V)))
			if !ok1 || !ok2 || !g2.HasEdge(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFileMalformed(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(p, []byte("0 1\nonlyone\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(p); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed file: %v", err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := fromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}})
	var buf bytes.Buffer
	groups := [][]int32{{0, 1, 2}, {2, 3, 4}}
	err := WriteDOT(&buf, g, groups, func(v int32) string { return string(rune('a' + v)) })
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph mce {", `label="a"`, "n0 -- n1", "peripheries=2", "fillcolor=light"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output misses %q:\n%s", want, out)
		}
	}
	// nil labeler and nil groups are fine.
	buf.Reset()
	if err := WriteDOT(&buf, g, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `label="0"`) {
		t.Fatalf("default labels missing:\n%s", buf.String())
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
