package cliqdb

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"mce/internal/runlog/faultfs"
)

// fixedFamily is a deterministic clique family with overlapping cliques, so
// posting lists have one- and two-byte gaps.
func fixedFamily() [][]int32 {
	var out [][]int32
	for i := int32(0); i < 400; i++ {
		c := []int32{i % 50}
		for j := int32(1); j <= 1+i%7; j++ {
			c = append(c, c[len(c)-1]+1+(i*j)%11+(i%5)*(j%2)*300)
		}
		out = append(out, c)
	}
	return out
}

// TestIndexBytesUnchanged pins the MCEDB1 image to the bytes the
// pre-durable compiler produced for fixedFamily (digest taken from that
// build): an index written by either side opens on the other.
func TestIndexBytesUnchanged(t *testing.T) {
	image, st, err := encode(fixedFamily())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(image)
	const want = "c9abdf4ec1e600b85cd3573887e5c0ca755ff99ba1fc70328675086c7ae5c68c"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("index digest %s (%d bytes, %d cliques), the parent commit wrote %s", got, len(image), st.Cliques, want)
	}
}

// TestBuildTornWrites runs the compiler's write under a spread of budgets
// up to the image's size: the live index is absent (first compile) or the
// previous complete index until the budget covers the new one.
func TestBuildTornWrites(t *testing.T) {
	previous, next := testCliques(), fixedFamily()
	image, _, err := encode(next)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeded := range []bool{false, true} {
		for budget := 0; budget <= len(image); budget += 997 {
			if len(image)-budget < 997 {
				budget = len(image) // the last step is the whole image
			}
			path := filepath.Join(t.TempDir(), "index.cliqdb")
			wantDigest := uint32(0)
			if seeded {
				st, err := Build(previous, path)
				if err != nil {
					t.Fatal(err)
				}
				wantDigest = st.Digest
			}
			st, err := build(faultfs.New(int64(budget)), next, path)
			switch {
			case budget == len(image):
				if err != nil {
					t.Fatalf("budget %d covers the image, build failed: %v", budget, err)
				}
				wantDigest = st.Digest
			case err == nil:
				t.Fatalf("budget %d of %d: build reported success", budget, len(image))
			case !seeded:
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("budget %d: a failed first compile left a live index (%v)", budget, err)
				}
				continue
			}
			db, err := Open(path)
			if err != nil || db.Digest() != wantDigest {
				t.Fatalf("budget %d (seeded %v): live index does not open as the expected family: %v", budget, seeded, err)
			}
		}
	}
}
