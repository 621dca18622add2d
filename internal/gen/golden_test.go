package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mce/internal/graph"
)

// edgeDigest is FNV-64a over the node count and every adjacency row. It is
// spelled out here, not borrowed from a package under test, so the goldens
// below move only when a generator does.
func edgeDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	put(g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		put(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			put(int(u))
		}
	}
	return h.Sum64()
}

// TestGeneratorGoldenDigests pins the graphs the map-based HolmeKim and
// BarabasiAlbert produced (digests taken from that build) at two sizes and
// three seeds: the benchmark's committed clique families (bench/expect.go)
// are families of exactly these graphs.
func TestGeneratorGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"HolmeKim(2000,5,0.7,42)", HolmeKim(2000, 5, 0.7, 42), 0xe64dfa9618f520bc},
		{"HolmeKim(2000,5,0.7,1)", HolmeKim(2000, 5, 0.7, 1), 0x576b2e6dd9973a03},
		{"HolmeKim(2000,5,0.7,7)", HolmeKim(2000, 5, 0.7, 7), 0x63341a2b35eb34f1},
		{"HolmeKim(20000,8,0.7,42)", HolmeKim(20000, 8, 0.7, 42), 0xd7e67bca2c098dbc},
		{"HolmeKim(20000,8,0.7,1)", HolmeKim(20000, 8, 0.7, 1), 0x14966e8c147aeb37},
		{"HolmeKim(20000,8,0.7,7)", HolmeKim(20000, 8, 0.7, 7), 0x21074ebf9b4cc469},
		{"BarabasiAlbert(2000,4,42)", BarabasiAlbert(2000, 4, 42), 0xd620f190226eba96},
		{"BarabasiAlbert(20000,6,7)", BarabasiAlbert(20000, 6, 7), 0x40fa3d4de5fcf232},
	} {
		if got := edgeDigest(tc.g); got != tc.want {
			t.Errorf("%s digests to %#x, the map-based generator produced %#x", tc.name, got, tc.want)
		}
	}
}
