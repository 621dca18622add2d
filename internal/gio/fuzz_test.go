package gio

import (
	"slices"
	"strings"
	"testing"
)

// Fuzz targets double as robustness tests: under plain `go test` they run
// their seed corpus; `go test -fuzz=FuzzReadEdgeList ./internal/gio` explores
// further. The invariant under arbitrary input is "clean error or valid
// graph", never a panic.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\na b extra cols\n")
	f.Add("")
	f.Add("x\n")
	f.Add("0 0\n0 1\n0 1\n")
	f.Add(strings.Repeat("9 9 9\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		g, m, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if g.N() != m.Len() {
			t.Fatalf("graph has %d nodes but %d labels", g.N(), m.Len())
		}
		// The graph must be normalised: symmetric, no loops.
		for v := int32(0); v < int32(g.N()); v++ {
			for _, u := range g.Neighbors(v) {
				if u == v {
					t.Fatal("self loop survived")
				}
				if !g.HasEdge(u, v) {
					t.Fatal("asymmetric adjacency")
				}
			}
		}
	})
}

func FuzzReadTriples(f *testing.F) {
	f.Add("a e0 b\nb e1 c\n")
	f.Add("1 2\n")
	f.Add("x y z w\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, _, err := ReadTriples(strings.NewReader(input))
		if err != nil {
			return
		}
		if g.N() < 0 || g.M() < 0 {
			t.Fatal("negative dimensions")
		}
	})
}

// FuzzLoadMatchesReference: in both formats the reader makes the same
// decision as referenceRead — accept or reject, with the same error text —
// and on acceptance the same CSR, byte for byte, and the same label order.
func FuzzLoadMatchesReference(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("a b\nb c\n")
	f.Add("bad\n")
	f.Add("a e0 b\r\nb e1 c\r\n")                                // CRLF
	f.Add("a\te0\tb\n\tb \t e1\t c \n")                          // tabs
	f.Add("a\ve0\fb\n\fb\ve1 c\v\n")                             // \v and \f
	f.Add("a\xc2\xa0e0 b\n\xc2\xa0c e1\xc2\xa0d\n")              // NBSP
	f.Add("a\xc2\x85e0 b\nc e1 d\xc2\x85\n")                     // U+0085
	f.Add("a\xe2\x80\x83e0 b\n\xe2\x80\x83b e1 c\xe2\x80\x83\n") // U+2003
	f.Add("a\xffb e0 c\n\xfe \xc3 \x80\nd e1 \xe2\x80\n")        // invalid UTF-8
	f.Add("  # x y\n\t% a b c\n a b c\n#\n%\n\xc2\xa0# d e f\n") // comments after blanks
	f.Add("\n\n  \n\t\na b c\n\r\n")                             // blank lines
	f.Add("a e0 b\nb e1 c")                                      // no final newline
	f.Add("0 1 17 2020\n1 2 3\n2 3 x y z\n")                     // extra columns
	f.Add("a a a\nb e b\n only \n")                              // self loops, one field
	f.Fuzz(func(t *testing.T, input string) {
		for _, triples := range []bool{false, true} {
			read := ReadEdgeList
			if triples {
				read = ReadTriples
			}
			g, m, err := read(strings.NewReader(input))
			rg, rm, rerr := referenceRead(strings.NewReader(input), triples)
			if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
				t.Fatalf("triples=%v: error %v, reference %v", triples, err, rerr)
			}
			if err != nil {
				continue
			}
			offsets, flat := g.CSR()
			roffsets, rflat := rg.CSR()
			if !slices.Equal(offsets, roffsets) || !slices.Equal(flat, rflat) {
				t.Fatalf("triples=%v: CSR %v %v, reference %v %v", triples, offsets, flat, roffsets, rflat)
			}
			if !slices.Equal(m.labels, rm.labels) {
				t.Fatalf("triples=%v: labels %q, reference %q", triples, m.labels, rm.labels)
			}
		}
	})
}
