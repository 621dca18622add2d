package cliqstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeSegmentFile seals the given cliques into one segment file.
func writeSegmentFile(t *testing.T, path string, cliques [][]int32) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteAll(f, cliques); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWalkDirVisitsSortedOrder(t *testing.T) {
	dir := t.TempDir()
	// Written out of order on purpose; the walk must be filename-sorted.
	writeSegmentFile(t, filepath.Join(dir, "L001-B000002.cliq"), [][]int32{{7, 8}})
	writeSegmentFile(t, filepath.Join(dir, "L000-B000001.cliq"), [][]int32{{3, 4, 5}})
	writeSegmentFile(t, filepath.Join(dir, "L000-B000000.cliq"), [][]int32{{0, 1}, {2, 6}})
	// Distractors: temp file from an in-flight atomic write, unrelated file.
	os.WriteFile(filepath.Join(dir, "L009-B000009.cliq.tmp"), []byte("junk"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("junk"), 0o644)

	var got [][]int32
	n, err := WalkDir(dir, func(c []int32) error {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{0, 1}, {2, 6}, {3, 4, 5}, {7, 8}}
	if n != int64(len(want)) || len(got) != len(want) {
		t.Fatalf("walked %d cliques (%d reported), want %d", len(got), n, len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("clique %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("clique %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestWalkDirRejectsTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "L000-B000000.cliq")
	writeSegmentFile(t, path, [][]int32{{0, 1, 2}, {3, 4}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = WalkDir(dir, func([]int32) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("walk over truncated segment: err = %v, want ErrTruncated", err)
	}
}

// TestWriteDirRoundTrip pins the serving-segment writer: the family comes
// back exactly through WalkDir, and rewriting a directory replaces the
// family and removes stale segments so the next compile sees only the new
// cliques.
func TestWriteDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx.segments")
	family := [][]int32{{0, 1, 2}, {2, 3}, {1, 4}}
	if err := WriteDir(dir, family); err != nil {
		t.Fatal(err)
	}
	// A stale segment from an older layout must not survive a rewrite.
	writeSegmentFile(t, filepath.Join(dir, "stale.cliq"), [][]int32{{7, 8}})
	next := [][]int32{{0, 1}, {5, 6}}
	if err := WriteDir(dir, next); err != nil {
		t.Fatal(err)
	}
	var got [][]int32
	n, err := WalkDir(dir, func(c []int32) error {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(next)) {
		t.Fatalf("WalkDir visited %d cliques, want %d", n, len(next))
	}
	for i := range next {
		if len(got[i]) != len(next[i]) {
			t.Fatalf("clique %d = %v, want %v", i, got[i], next[i])
		}
		for j := range next[i] {
			if got[i][j] != next[i][j] {
				t.Fatalf("clique %d = %v, want %v", i, got[i], next[i])
			}
		}
	}
	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != FamilySegment {
		t.Fatalf("segment files after rewrite = %v, want only %s", files, FamilySegment)
	}
}

func TestWalkDirMissingDirectory(t *testing.T) {
	_, err := WalkDir(filepath.Join(t.TempDir(), "nope"), func([]int32) error { return nil })
	if err == nil || !IsNotExist(err) {
		t.Fatalf("missing dir: err = %v, want IsNotExist", err)
	}
}

func TestWalkDirEmptyDirectory(t *testing.T) {
	n, err := WalkDir(t.TempDir(), func([]int32) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("empty dir: n=%d err=%v, want 0, nil", n, err)
	}
}
