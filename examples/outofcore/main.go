// Out-of-core enumeration: store a network's adjacency on disk, keep only
// O(N) memory resident, and stream its maximal cliques into a compact
// binary store — the "network exceeds main memory" regime that motivates
// the paper's distributed decomposition.
//
// Run with:
//
//	go run ./examples/outofcore
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mce"
)

func main() {
	dir, err := os.MkdirTemp("", "mce-outofcore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A network big enough to be interesting; on a real deployment this
	// would be far larger than RAM.
	g := mce.GenerateSocialNetwork(20000, 6, 0.7, 4)
	graphPath := filepath.Join(dir, "network.mceg")
	if err := mce.SaveDiskGraph(graphPath, g); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(graphPath)
	fmt.Printf("network: %d nodes, %d edges — %d KiB on disk\n",
		g.N(), g.M(), st.Size()/1024)

	// Enumerate straight from disk, then persist into the compact store.
	cliquePath := filepath.Join(dir, "cliques.mce")
	var cliques [][]int32
	t0 := time.Now()
	stats, err := mce.EnumerateOutOfCore(context.Background(), graphPath, func(c []int32, _ int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		cliques = append(cliques, cp)
	}, mce.WithBlockRatio(0.3))
	if err != nil {
		log.Fatal(err)
	}
	if err := mce.SaveCliques(cliquePath, cliques); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("out-of-core: %d cliques (%d hub-only) in %v\n",
		stats.TotalCliques, stats.HubCliques, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("             %d blocks materialised, %d adjacency reads from disk\n",
		stats.Blocks, stats.DiskReads)

	cst, _ := os.Stat(cliquePath)
	fmt.Printf("clique store: %d KiB on disk for %d cliques\n", cst.Size()/1024, len(cliques))

	// Cross-check against the in-memory engine, streamed so its family is
	// never held: every clique it emits must be one the disk run found, and
	// the counts must agree.
	found := make(map[string]bool, len(cliques))
	for _, c := range cliques {
		found[fmt.Sprint(c)] = true
	}
	mem, err := mce.EnumerateStream(g, func(c []int32, _ int) {
		if !found[fmt.Sprint(c)] {
			log.Fatalf("MISMATCH: in-memory clique %v not found out of core", c)
		}
	}, mce.WithBlockRatio(0.3))
	if err != nil {
		log.Fatal(err)
	}
	if mem.TotalCliques != stats.TotalCliques {
		log.Fatalf("MISMATCH: %d vs %d", stats.TotalCliques, mem.TotalCliques)
	}
	fmt.Println("matches the in-memory engine ✓")
}
