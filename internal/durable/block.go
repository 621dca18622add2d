package durable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Block is one induced block in the form it crosses the wire: the CSR
// adjacency of its local graph, the global ID of every local node, and one
// class byte per local node (the caller's kernel/border/visited partition;
// the codec carries the bytes and leaves their meaning to the caller).
//
// Encoded, it is: uvarint n, then the n adjacency rows each as an ascending
// run (so a row is prefixed by its degree), then Orig as one ascending run
// of n members, then the n class bytes.
type Block struct {
	Offsets []int32 // len n+1: row v is Flat[Offsets[v]:Offsets[v+1]]
	Flat    []int32 // the rows back to back, each strictly ascending
	Orig    []int32 // len n, strictly ascending
	Class   []byte  // len n
}

// AppendBlock appends the encoding of b to dst. Offsets and Flat must be
// the CSR arrays of a graph (they are sliced as such); it fails, leaving dst
// unextended, when the slices disagree on n or a row or Orig is not strictly
// ascending.
func AppendBlock(dst []byte, b Block) ([]byte, error) {
	n := len(b.Orig)
	if len(b.Offsets) != n+1 || len(b.Class) != n {
		return dst, fmt.Errorf("durable: block of %d node IDs has %d offsets and %d class bytes", n, len(b.Offsets), len(b.Class))
	}
	out := binary.AppendUvarint(dst, uint64(n))
	var err error
	for v := 0; v < n; v++ {
		if out, err = AppendAscending(out, b.Flat[b.Offsets[v]:b.Offsets[v+1]]); err != nil {
			return dst, fmt.Errorf("durable: block row %d: %w", v, err)
		}
	}
	if out, err = AppendAscending(out, b.Orig); err != nil {
		return dst, fmt.Errorf("durable: block node IDs: %w", err)
	}
	return append(out, b.Class...), nil
}

// DecodeBlock decodes one block from the front of p and returns it with the
// undecoded rest. Row members must be below n and Orig below 1<<31; whether
// the rows form a simple undirected graph is graph.FromCSR's to check.
// Allocation is bounded by len(p): a row or a node takes at least one byte.
func DecodeBlock(p []byte) (b Block, rest []byte, err error) {
	n64, k, err := uvarint(p)
	if err != nil {
		return Block{}, p, err
	}
	rest = p[k:]
	if n64 > uint64(len(rest)) {
		return Block{}, p, ErrShort
	}
	n := int(n64)
	b.Offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		if b.Flat, rest, err = DecodeAscending(b.Flat, rest, int64(n)); err != nil {
			return Block{}, p, fmt.Errorf("block row %d: %w", v, err)
		}
		if len(b.Flat) > math.MaxInt32 {
			return Block{}, p, fmt.Errorf("%w: block rows exceed 2^31 entries", ErrMalformed)
		}
		b.Offsets[v+1] = int32(len(b.Flat))
	}
	if b.Orig, rest, err = DecodeAscending(nil, rest, 1<<31); err != nil {
		return Block{}, p, fmt.Errorf("block node IDs: %w", err)
	}
	if len(b.Orig) != n {
		return Block{}, p, fmt.Errorf("%w: block of %d nodes lists %d node IDs", ErrMalformed, n, len(b.Orig))
	}
	if len(rest) < n {
		return Block{}, p, ErrShort
	}
	b.Class = append([]byte(nil), rest[:n]...)
	return b, rest[n:], nil
}
