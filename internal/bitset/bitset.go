// Package bitset implements fixed-capacity bit sets backed by []uint64 words.
//
// Bit sets carry node sets through the decomposition (BLOCKS' cover and
// kernel marks), the maximum-clique search and the public MCE(R, P, X)
// entry points, so every operation here is word-parallel and
// allocation-conscious. The MCE recursion itself works on bare word windows
// of the same layout (package mcealg; Words hands a Set over). A Set of
// capacity n occupies ceil(n/64) words; all sets participating in binary
// operations must have been created with the same capacity.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New to create a set able to hold values in [0, n).
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty Set with capacity for values in [0, n).
//
//mce:coldpath allocating constructor
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a Set of capacity n containing every value in vs.
// Values outside [0, n) are ignored.
//
//mce:coldpath allocating constructor
func FromSlice(n int, vs []int32) *Set {
	s := New(n)
	for _, v := range vs {
		if v >= 0 && int(v) < n {
			s.Add(v)
		}
	}
	return s
}

// Cap reports the capacity of the set (the exclusive upper bound on values).
func (s *Set) Cap() int { return s.n }

// Words returns the set's backing words, ⌈Cap()/64⌉ of them, bit v of word
// v/64 standing for value v. The slice aliases the set.
func (s *Set) Words() []uint64 { return s.words }

// Add inserts v into the set. Adding a value outside [0, Cap()) panics,
// matching the behaviour of an out-of-range slice index.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Add(v int32) {
	s.words[v>>6] |= 1 << (uint(v) & 63)
}

// Remove deletes v from the set if present.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Remove(v int32) {
	s.words[v>>6] &^= 1 << (uint(v) & 63)
}

// Has reports whether v is in the set.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Has(v int32) bool {
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Empty reports whether the set contains no values.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of values in the set.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes every value, keeping the capacity.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
//
//mce:coldpath allocating copy, used at subproblem setup
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites the set with the contents of o. The capacities of the
// two sets must match.
//
//mce:hotpath per-node bitset kernel
func (s *Set) CopyFrom(o *Set) {
	copy(s.words, o.words)
}

// And replaces the set with the intersection of itself and o.
//
//mce:hotpath per-node bitset kernel
func (s *Set) And(o *Set) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// AndInto stores the intersection of a and b into s without allocating.
// All three sets must share the same capacity.
//
//mce:hotpath per-node bitset kernel
func (s *Set) AndInto(a, b *Set) {
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// AndCount returns |s ∩ o| without materialising the intersection.
//
//mce:hotpath per-node bitset kernel
func (s *Set) AndCount(o *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// AndNotInto stores a \ b into s without allocating.
//
//mce:hotpath per-node bitset kernel
func (s *Set) AndNotInto(a, b *Set) {
	for i := range s.words {
		s.words[i] = a.words[i] &^ b.words[i]
	}
}

// Or replaces the set with the union of itself and o.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Or(o *Set) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// AndNot removes from the set every value present in o.
//
//mce:hotpath per-node bitset kernel
func (s *Set) AndNot(o *Set) {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Intersects reports whether s and o share at least one value.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Intersects(o *Set) bool {
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every value of s is also in o.
//
//mce:hotpath per-node bitset kernel
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same values.
//
//mce:hotpath per-node bitset kernel
func (s *Set) Equal(o *Set) bool {
	if len(s.words) != len(o.words) {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Next returns the smallest value >= from contained in the set, or -1 if
// there is none. It enables allocation-free iteration:
//
//	for v := s.Next(0); v >= 0; v = s.Next(v + 1) { ... }
//
//mce:hotpath per-node bitset kernel
func (s *Set) Next(from int32) int32 {
	if from < 0 {
		from = 0
	}
	i := int(from >> 6)
	if i >= len(s.words) {
		return -1
	}
	w := s.words[i] >> (uint(from) & 63)
	if w != 0 {
		return from + int32(bits.TrailingZeros64(w))
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return int32(i<<6) + int32(bits.TrailingZeros64(s.words[i]))
		}
	}
	return -1
}

// ForEach calls fn for every value in the set in ascending order.
//
//mce:hotpath per-node bitset kernel
func (s *Set) ForEach(fn func(v int32)) {
	for i, w := range s.words {
		base := int32(i << 6)
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// AppendTo appends the set's values in ascending order to dst and returns
// the extended slice.
func (s *Set) AppendTo(dst []int32) []int32 {
	s.ForEach(func(v int32) { dst = append(dst, v) })
	return dst
}

// Slice returns the set's values in ascending order as a fresh slice.
func (s *Set) Slice() []int32 {
	return s.AppendTo(make([]int32, 0, s.Count()))
}

// String renders the set as "{a, b, c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int32) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(int(v)))
	})
	b.WriteByte('}')
	return b.String()
}
