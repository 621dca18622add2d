package cliqstore

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// sealed returns the bytes of a finished store holding the given cliques,
// plus the byte length of the store up to (and including) the last clique —
// i.e. the trailer starts at that offset.
func sealed(t *testing.T, cliques [][]int32) (data []byte, bodyLen int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cliques {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	bodyLen = buf.Len()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), bodyLen
}

func drain(r *Reader) (n int, err error) {
	for {
		_, err = r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return n, err
		}
		n++
	}
}

// TestTruncatedAtCliqueBoundary is the regression test for the silent-drop
// bug: a segment cut exactly between two cliques used to read back as a
// shorter, apparently complete store. The trailer makes it ErrTruncated.
func TestTruncatedAtCliqueBoundary(t *testing.T) {
	cliques := [][]int32{{0, 1, 2}, {4, 9}, {7, 8, 11, 12}}
	data, _ := sealed(t, cliques)

	// Find the boundary after the second clique by re-encoding a prefix.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(cliques[0])
	w.Write(cliques[1])
	w.Flush()
	cut := buf.Len()

	r, err := NewReader(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	n, err := drain(r)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("boundary-truncated store: got %d cliques, err %v; want ErrTruncated", n, err)
	}
}

// TestTruncatedTrailer covers a crash mid-trailer: the cliques are intact
// but the seal is torn.
func TestTruncatedTrailer(t *testing.T) {
	data, bodyLen := sealed(t, [][]int32{{1, 2}, {3, 5, 6}})
	for cut := bodyLen; cut < len(data); cut++ {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(r); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d of %d: err %v, want ErrTruncated", cut, len(data), err)
		}
	}
}

// TestCorruptTrailerDigest flips a content byte so the trailer digest no
// longer matches.
func TestCorruptTrailerDigest(t *testing.T) {
	data, bodyLen := sealed(t, [][]int32{{1, 2, 3}, {10, 20}})
	data[bodyLen-1] ^= 0x01 // corrupt the last clique's encoding
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(r); err == nil {
		t.Fatal("corrupted store drained cleanly")
	}
}

// TestCorruptTrailerCount rebuilds a store with one clique dropped but the
// original trailer appended, so the count disagrees.
func TestCorruptTrailerCount(t *testing.T) {
	cliques := [][]int32{{0, 1}, {2, 3}}
	data, bodyLen := sealed(t, cliques)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(cliques[0])
	w.Flush()
	short := append([]byte(nil), buf.Bytes()...)
	short = append(short, data[bodyLen:]...) // original trailer
	r, err := NewReader(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count-mismatched store: err %v, want ErrCorrupt", err)
	}
}

// TestLegacyV1Refused pins the end of the version-1 read path: a store with
// the MCE1 magic (no trailer) is refused at NewReader, by version.
func TestLegacyV1Refused(t *testing.T) {
	data, bodyLen := sealed(t, [][]int32{{1, 4}, {2, 6, 9}})
	legacy := append([]byte("MCE1"), data[4:bodyLen]...)
	_, err := NewReader(bytes.NewReader(legacy))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("legacy store: err %v, want a refusal naming version 1", err)
	}
}

// TestReaderDigestMatchesWriter pins the digest symmetry the checkpoint
// layer depends on: reader and writer digests agree, as does Digest().
func TestReaderDigestMatchesWriter(t *testing.T) {
	cliques := [][]int32{{0, 1, 2}, {4, 9}, {5}}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, c := range cliques {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.Digest() != Digest(cliques) {
		t.Fatalf("writer digest %#x != Digest() %#x", w.Digest(), Digest(cliques))
	}
	r, _ := NewReader(&buf)
	if _, err := drain(r); err != nil {
		t.Fatal(err)
	}
	if r.Digest() != w.Digest() {
		t.Fatalf("reader digest %#x != writer digest %#x", r.Digest(), w.Digest())
	}
	if r.Count() != int64(len(cliques)) {
		t.Fatalf("reader count %d, want %d", r.Count(), len(cliques))
	}
}
