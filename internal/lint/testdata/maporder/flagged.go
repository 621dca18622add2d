package fixture

import (
	"fmt"
	"math/rand"

	"mce/internal/durable"
)

// ShuffleHub rebuilds the PR 3 bug shape: a neighbour slice collected from
// a map range, indexed with a seeded draw — same-seed runs pick different
// elements per process.
func ShuffleHub(adj map[int32]bool, seed int64) int32 {
	nbrs := make([]int32, 0, len(adj))
	for v := range adj {
		nbrs = append(nbrs, v)
	}
	rng := rand.New(rand.NewSource(seed))
	return nbrs[rng.Intn(len(nbrs))] // want `seeded rand draw indexes a map-iteration-ordered slice`
}

// Wire frames a map-ordered payload for the wire: the bytes, and so the
// frame's checksum, differ per process.
func Wire(set map[byte]int) []byte {
	payload := make([]byte, 0, len(set))
	for k := range set {
		payload = append(payload, k)
	}
	return durable.AppendFrame(nil, payload) // want `map-iteration-ordered value is framed for the wire or the journal`
}

// Dump prints every entry in iteration order: the lines reorder per run.
func Dump(set map[string]int) {
	for k, v := range set {
		fmt.Printf("%s=%d\n", k, v) // want `map-iteration-ordered value written to ordered output`
	}
}

// collect returns the keys in iteration order; callers inherit the taint
// through the function's exported summary, not by re-reading the body.
func collect(set map[string]int) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// PrintViaHelper shows the cross-function half: the taint flows through
// collect's summary into the caller.
func PrintViaHelper(set map[string]int) {
	keys := collect(set)
	fmt.Println(keys) // want `map-iteration-ordered value written to ordered output`
}
