package gio

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"mce/internal/gen"
	"mce/internal/graph"
)

func TestWritePartitionedValidation(t *testing.T) {
	if err := WritePartitioned(t.TempDir(), graph.Empty(1), 0); err == nil {
		t.Fatal("parts=0 accepted")
	}
}

func TestPartitionedRoundTrip(t *testing.T) {
	g := gen.HolmeKim(300, 4, 0.6, 3)
	dir := t.TempDir()
	if err := WritePartitioned(dir, g, 5); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "part-*.triples"))
	if len(matches) != 5 {
		t.Fatalf("wrote %d partitions, want 5", len(matches))
	}
	g2, m, err := ReadPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), g.N(), g.M())
	}
	if m.Len() != g.N() {
		t.Fatalf("label map has %d labels, want %d", m.Len(), g.N())
	}
	// Structural check: every original edge exists under the hash-label
	// mapping.
	for _, e := range g.Edges() {
		u, ok1 := m.Lookup(hashToken(e.U))
		v, ok2 := m.Lookup(hashToken(e.V))
		if !ok1 || !ok2 || !g2.HasEdge(u, v) {
			t.Fatalf("edge %v lost in partitioned round trip", e)
		}
	}
}

func hashToken(v int32) string {
	return itoa(HashLabel(strconv.Itoa(int(v))))
}

func TestPartitionedBalance(t *testing.T) {
	g := gen.ErdosRenyi(100, 0.2, 5)
	dir := t.TempDir()
	parts := 4
	if err := WritePartitioned(dir, g, parts); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 0, parts)
	matches, _ := filepath.Glob(filepath.Join(dir, "part-*.triples"))
	for _, p := range matches {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min == 0 || max > 2*min {
		t.Fatalf("partitions unbalanced: %v", sizes)
	}
}

func TestReadPartitionedMissingDir(t *testing.T) {
	if _, _, err := ReadPartitioned(filepath.Join(t.TempDir(), "empty")); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPartitionedSinglePart(t *testing.T) {
	g := graph.Complete(6)
	dir := t.TempDir()
	if err := WritePartitioned(dir, g, 1); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 15 {
		t.Fatalf("M = %d, want 15", g2.M())
	}
}

// Property: partition count never changes the merged graph, and the merge
// is LoadFile of the parts concatenated in name order: the same CSR and the
// same labels in the same order.
func TestQuickPartitionCountIrrelevant(t *testing.T) {
	f := func(seed int64, rawParts uint8) bool {
		parts := int(rawParts%7) + 1
		g := gen.ErdosRenyi(40, 0.15, seed)
		if g.M() == 0 {
			return true
		}
		dir, err := os.MkdirTemp("", "mcepart")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		if err := WritePartitioned(dir, g, parts); err != nil {
			return false
		}
		g2, m2, err := ReadPartitioned(dir)
		if err != nil {
			return false
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "part-*.triples"))
		sort.Strings(matches)
		var all []byte
		for _, p := range matches {
			b, err := os.ReadFile(p)
			if err != nil {
				return false
			}
			all = append(all, b...)
		}
		cat := filepath.Join(dir, "all.triples")
		if err := os.WriteFile(cat, all, 0o644); err != nil {
			return false
		}
		g3, m3, err := LoadFile(cat)
		if err != nil {
			return false
		}
		o2, f2 := g2.CSR()
		o3, f3 := g3.CSR()
		if !slices.Equal(o2, o3) || !slices.Equal(f2, f3) || !slices.Equal(m2.labels, m3.labels) {
			return false
		}
		// Triple files carry edges only, so isolated nodes do not survive;
		// compare edge counts and edge-incident node counts.
		incident := 0
		for v := int32(0); v < int32(g.N()); v++ {
			if g.Degree(v) > 0 {
				incident++
			}
		}
		return g2.N() == incident && g2.M() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
