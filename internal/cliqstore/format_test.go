package cliqstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"mce/internal/runlog/faultfs"
)

// fixedFamily is a deterministic clique family with one-, two- and
// three-byte gaps, an empty-gap-free singleton and IDs up to 2^31-1.
func fixedFamily() [][]int32 {
	var out [][]int32
	for i := int32(0); i < 300; i++ {
		c := []int32{i * 3}
		for j := int32(1); j <= i%9; j++ {
			c = append(c, c[len(c)-1]+1+(i*j)%5+(i%4)*(j%3)*700)
		}
		out = append(out, c)
	}
	return append(out, []int32{5, 70000, 9000000, 1<<31 - 1})
}

// TestSegmentBytesUnchanged pins the on-disk segment format to the bytes
// the pre-durable writer produced for fixedFamily (digest taken from that
// build): a segment directory written by either side reads on the other.
func TestSegmentBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(dir, fixedFamily()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FamilySegment))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "8700dc69e105e8fae5f43da429271f7a1fa7420dadfea6a7224061e81ebafd4e"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("family segment digest %s, the parent commit wrote %s", got, want)
	}
	if d := Digest(fixedFamily()); d != 0x6631e448 {
		t.Fatalf("content digest %#x moved", d)
	}
}

// TestWriteDirTornWrites runs WriteDir under every write budget up to the
// segment's size: the family segment is absent (fresh directory) or the
// previous complete family until the budget covers the new one, never a
// torn file.
func TestWriteDirTornWrites(t *testing.T) {
	previous, next := [][]int32{{1, 2, 3}, {4, 9}}, fixedFamily()[:40]
	var image bytes.Buffer
	if _, _, err := WriteAll(&image, next); err != nil {
		t.Fatal(err)
	}
	read := func(dir string) (fam [][]int32, err error) {
		_, err = WalkDir(dir, func(c []int32) error {
			fam = append(fam, append([]int32(nil), c...))
			return nil
		})
		return fam, err
	}
	for _, seeded := range []bool{false, true} {
		for budget := 0; budget <= image.Len(); budget += 7 {
			if image.Len()-budget < 7 {
				budget = image.Len() // the last step is the whole segment
			}
			dir := t.TempDir()
			if seeded {
				if err := WriteDir(dir, previous); err != nil {
					t.Fatal(err)
				}
			}
			err := writeDir(faultfs.New(int64(budget)), dir, next)
			got, readErr := read(dir)
			if readErr != nil {
				t.Fatalf("budget %d: the directory no longer verifies: %v", budget, readErr)
			}
			want := [][]int32(nil)
			switch {
			case budget == image.Len():
				if err != nil {
					t.Fatalf("budget %d covers the segment, WriteDir failed: %v", budget, err)
				}
				want = next
			case err == nil:
				t.Fatalf("budget %d of %d: WriteDir reported success", budget, image.Len())
			case seeded:
				want = previous
			}
			if Digest(got) != Digest(want) || len(got) != len(want) {
				t.Fatalf("budget %d (seeded %v): directory holds %d cliques, want %d", budget, seeded, len(got), len(want))
			}
		}
	}
}
