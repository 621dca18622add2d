package durable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// CSR is a graph's adjacency in the form it crosses the wire: row v is
// Flat[Offsets[v]:Offsets[v+1]], each row strictly ascending. The codec
// carries the rows and leaves whether they form a simple undirected graph to
// the caller (graph.FromCSR checks that).
//
// Encoded, it is: uvarint n, then the n rows each as an ascending run (so a
// row is prefixed by its degree).
type CSR struct {
	Offsets []int32 // len n+1
	Flat    []int32
}

// AppendCSR appends the encoding of c to dst. Offsets and Flat must be the
// CSR arrays of a graph (they are sliced as such); it fails, leaving dst
// unextended, when a row is not strictly ascending.
func AppendCSR(dst []byte, c CSR) ([]byte, error) {
	n := len(c.Offsets) - 1
	if n < 0 {
		return dst, fmt.Errorf("durable: CSR without offsets")
	}
	out := binary.AppendUvarint(dst, uint64(n))
	var err error
	for v := 0; v < n; v++ {
		if out, err = AppendAscending(out, c.Flat[c.Offsets[v]:c.Offsets[v+1]]); err != nil {
			return dst, fmt.Errorf("durable: CSR row %d: %w", v, err)
		}
	}
	return out, nil
}

// DecodeCSR decodes one adjacency from the front of p, its rows onto
// flat[:0], and returns it with the undecoded rest. Row members must be
// below n. Allocation is bounded by len(p): a row or a row entry takes at
// least one byte. A caller that knows the row entries to expect sizes flat
// for them, and the rows are held at exactly that size.
func DecodeCSR(flat []int32, p []byte) (c CSR, rest []byte, err error) {
	n64, k, err := uvarint(p)
	if err != nil {
		return CSR{}, p, err
	}
	rest = p[k:]
	if n64 > uint64(len(rest)) {
		return CSR{}, p, ErrShort
	}
	n := int(n64)
	c.Offsets, c.Flat = make([]int32, n+1), flat[:0]
	for v := 0; v < n; v++ {
		if c.Flat, rest, err = DecodeAscending(c.Flat, rest, int64(n)); err != nil {
			return CSR{}, p, fmt.Errorf("CSR row %d: %w", v, err)
		}
		if len(c.Flat) > math.MaxInt32 {
			return CSR{}, p, fmt.Errorf("%w: CSR rows exceed 2^31 entries", ErrMalformed)
		}
		c.Offsets[v+1] = int32(len(c.Flat))
	}
	return c, rest, nil
}
