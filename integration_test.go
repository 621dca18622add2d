package mce_test

import (
	"testing"

	"mce"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

// TestSurrogatesEndToEnd runs the full pipeline on every evaluation
// surrogate at the saddle-point ratio and cross-validates the clique count
// and ω, the largest clique size, against a flat single-machine
// enumeration and the streaming engine. This is the closest thing to
// re-running §6 as a test.
func TestSurrogatesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full surrogate sweep is slow")
	}
	for _, spec := range gen.Datasets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build()

			// The flat run knows nothing of blocks or hubs, so its ω checks
			// the decomposition independently.
			flat, omega := 0, 0
			err := mcealg.Enumerate(g, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}, func(c []int32) {
				flat++
				omega = max(omega, len(c))
			})
			if err != nil {
				t.Fatal(err)
			}

			res, err := mce.Enumerate(g, mce.WithBlockRatio(0.5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.TotalCliques != flat {
				t.Fatalf("two-level engine found %d cliques, flat MCE %d", res.Stats.TotalCliques, flat)
			}

			streamed, maxSize := 0, 0
			_, err = mce.EnumerateStream(g, func(c []int32, _ int) {
				streamed++
				maxSize = max(maxSize, len(c))
			}, mce.WithBlockRatio(0.5))
			if err != nil {
				t.Fatal(err)
			}
			if streamed != flat {
				t.Fatalf("streaming engine emitted %d cliques, want %d", streamed, flat)
			}

			if maxSize != omega {
				t.Fatalf("streaming engine's largest clique has %d nodes, flat MCE ω = %d", maxSize, omega)
			}

			// The surrogate is scale-free enough to have hub-only cliques
			// at an aggressive ratio.
			tight, err := mce.Enumerate(g, mce.WithBlockRatio(0.1))
			if err != nil {
				t.Fatal(err)
			}
			if tight.Stats.TotalCliques != flat {
				t.Fatalf("ratio 0.1 lost cliques: %d vs %d", tight.Stats.TotalCliques, flat)
			}
			if tight.Stats.HubCliques == 0 {
				t.Errorf("no hub-only cliques at ratio 0.1 — surrogate not hubby enough")
			}
		})
	}
}

// TestDistributedSurrogateEndToEnd reruns one surrogate over TCP workers.
func TestDistributedSurrogateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed surrogate run is slow")
	}
	spec, err := gen.Dataset("twitter1")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	addrs, stop, err := mce.StartLocalWorkers(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	local, err := mce.Enumerate(g, mce.WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := mce.Enumerate(g, mce.WithBlockRatio(0.3), mce.WithWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats.TotalCliques != dist.Stats.TotalCliques {
		t.Fatalf("distributed %d cliques, local %d", dist.Stats.TotalCliques, local.Stats.TotalCliques)
	}
	if local.Stats.HubCliques != dist.Stats.HubCliques {
		t.Fatalf("hub split differs: %d vs %d", dist.Stats.HubCliques, local.Stats.HubCliques)
	}
}

// TestRatioSweepInvariant checks the core completeness claim over the whole
// m/d grid on a mid-size surrogate-like graph: the clique set never depends
// on m.
func TestRatioSweepInvariant(t *testing.T) {
	g := mce.GenerateSocialNetwork(1200, 5, 0.7, 51)
	var baseline int
	for i, ratio := range []float64{0.9, 0.7, 0.5, 0.3, 0.1, 0.05} {
		res, err := mce.Enumerate(g, mce.WithBlockRatio(ratio))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseline = res.Stats.TotalCliques
			continue
		}
		if res.Stats.TotalCliques != baseline {
			t.Fatalf("ratio %v: %d cliques, want %d", ratio, res.Stats.TotalCliques, baseline)
		}
	}
}
