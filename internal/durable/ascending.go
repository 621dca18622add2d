package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

var (
	// ErrShort reports input that ends inside a value. A decoder reading a
	// stream can fetch more bytes and retry; for a complete buffer it means
	// truncation.
	ErrShort = errors.New("durable: input ends inside a value")
	// ErrMalformed reports bytes that are present but are not the canonical
	// encoding of anything: a padded or overflowing varint, a run that does
	// not ascend, a member outside its bound, a count the rest contradicts.
	ErrMalformed = errors.New("durable: malformed encoding")
	// ErrNotAscending reports an encoder input that is not a strictly
	// ascending run of non-negative values.
	ErrNotAscending = errors.New("durable: run is not strictly ascending and non-negative")
)

// uvarint decodes one uvarint from the front of b and insists on the
// minimal encoding, so a value has exactly one byte form.
func uvarint(b []byte) (v uint64, n int, err error) {
	v, n = binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, ErrShort
	case n < 0:
		return 0, 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
	case n > 1 && v < 1<<(7*(n-1)):
		return 0, 0, fmt.Errorf("%w: varint %d padded to %d bytes", ErrMalformed, v, n)
	}
	return v, n, nil
}

// AppendAscending appends run to dst as an ascending run: uvarint count,
// uvarint first member, then the uvarint gap to each following member. An
// empty run is the single byte 0. On ErrNotAscending dst is returned
// unextended.
func AppendAscending(dst []byte, run []int32) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(run)))
	prev := int32(0)
	for i, v := range run {
		if v < 0 || (i > 0 && v <= prev) {
			return dst, fmt.Errorf("%w (member %d)", ErrNotAscending, i)
		}
		out = binary.AppendUvarint(out, uint64(v-prev))
		prev = v
	}
	return out, nil
}

// DecodeAscending decodes one ascending run from the front of b, appends
// its members to dst and returns the extended slice and the undecoded rest.
// Members must be strictly ascending and below bound (at most 1<<31), every
// varint minimal. Nothing is allocated for a count the remaining bytes
// cannot hold: each member takes at least one byte.
func DecodeAscending(dst []int32, b []byte, bound int64) (run []int32, rest []byte, err error) {
	count, n, err := uvarint(b)
	if err != nil {
		return dst, b, err
	}
	rest = b[n:]
	if count > uint64(bound) {
		return dst, b, fmt.Errorf("%w: run of %d members below %d", ErrMalformed, count, bound)
	}
	if count > uint64(len(rest)) {
		return dst, b, ErrShort
	}
	run = slices.Grow(dst, int(count))
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		gap, n, err := uvarint(rest)
		if err != nil {
			return dst, b, err
		}
		rest = rest[n:]
		if gap == 0 && i > 0 {
			return dst, b, fmt.Errorf("%w: run repeats member %d", ErrMalformed, prev)
		}
		if gap >= uint64(bound) || prev+int64(gap) >= bound {
			return dst, b, fmt.Errorf("%w: run member outside bound %d", ErrMalformed, bound)
		}
		prev += int64(gap)
		run = append(run, int32(prev))
	}
	return run, rest, nil
}

// Run is a cursor over one encoded ascending run that decodes without
// checking: it is for bytes DecodeAscending has already accepted (the
// serving index verifies every run at open, then reads them per query).
type Run struct {
	b    []byte
	left uint64
	last int32
}

// OpenRun positions a cursor at the run that starts b.
func OpenRun(b []byte) Run {
	count, n := binary.Uvarint(b)
	return Run{b: b[n:], left: count}
}

// Len returns how many members the cursor has yet to yield.
func (r *Run) Len() int { return int(r.left) }

// Next yields the next member; ok is false once the run is drained.
func (r *Run) Next() (v int32, ok bool) {
	if r.left == 0 {
		return 0, false
	}
	r.left--
	gap, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	r.last += int32(gap)
	return r.last, true
}

// AppendRun appends every member of the run that starts b to dst, growing
// dst at most once and at least doubling it, so appending many runs into
// one buffer stays linear. Like Run it trusts its input. It is the whole
// decode in one call, count and cursor in registers and one-byte gaps (most
// of them, in a clique or a posting list) read without the varint loop:
// materialising cliques is what every serving response spends its decode
// time on.
func AppendRun(dst []int32, b []byte) []int32 {
	count, n := binary.Uvarint(b)
	b = b[n:]
	if cap(dst)-len(dst) < int(count) {
		grown := make([]int32, len(dst), max(2*cap(dst), len(dst)+int(count)))
		copy(grown, dst)
		dst = grown
	}
	last := int32(0)
	for ; count > 0 && len(b) > 0; count-- {
		gap, n := uint64(b[0]), 1
		if gap >= 0x80 {
			gap, n = binary.Uvarint(b)
		}
		b = b[n:]
		last += int32(gap)
		dst = append(dst, last)
	}
	return dst
}
