package mce

import (
	"sync"
	"testing"
	"time"
)

func TestWithTelemetryFinalSnapshot(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 7)
	res, err := Enumerate(g, WithTelemetryEngine(NewTelemetryEngine()), WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Telemetry
	if s == nil {
		t.Fatal("Stats.Telemetry nil with WithTelemetryEngine")
	}
	if s.BlocksBuilt == 0 || s.RecursionNodes == 0 {
		t.Fatalf("telemetry empty: %+v", s)
	}
	if s.CliquesFound-s.HubCliquesFiltered != int64(res.Stats.TotalCliques) {
		t.Fatalf("found %d − filtered %d ≠ total %d",
			s.CliquesFound, s.HubCliquesFiltered, res.Stats.TotalCliques)
	}

	// Without the option, no snapshot is attached.
	plain, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Telemetry != nil {
		t.Fatal("Stats.Telemetry set without a telemetry option")
	}
}

func TestWithTelemetryEngineSharedMidRun(t *testing.T) {
	eng := NewTelemetryEngine()
	g := GenerateSocialNetwork(200, 4, 0.5, 3)
	res, err := Enumerate(g, WithTelemetryEngine(eng), WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	// The caller-owned engine holds the same counts as the final snapshot.
	if got, want := eng.Snapshot().BlocksBuilt, res.Stats.Telemetry.BlocksBuilt; got != want {
		t.Fatalf("engine blocks %d ≠ snapshot blocks %d", got, want)
	}
}

// TestTelemetryEngineLiveSnapshots: a caller-owned engine can be
// snapshotted from another goroutine while the run is in flight — the way
// mcefind -debug-addr serves it — on both routes. Counters never go
// backwards between snapshots, and the engine ends where Stats.Telemetry
// does. Run it under -race.
func TestTelemetryEngineLiveSnapshots(t *testing.T) {
	g := GenerateSocialNetwork(500, 5, 0.6, 11)
	routes := map[string]func(...Option) (*Stats, error){
		"Enumerate": func(opts ...Option) (*Stats, error) {
			res, err := Enumerate(g, opts...)
			if err != nil {
				return nil, err
			}
			return &res.Stats, nil
		},
		"EnumerateStream": func(opts ...Option) (*Stats, error) {
			return EnumerateStream(g, func([]int32, int) {}, opts...)
		},
	}
	for name, route := range routes {
		t.Run(name, func(t *testing.T) {
			eng := NewTelemetryEngine()
			done := make(chan struct{})
			var snaps []TelemetrySnapshot
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					snaps = append(snaps, eng.Snapshot())
					select {
					case <-done:
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
			}()
			stats, err := route(WithBlockRatio(0.3), WithTelemetryEngine(eng))
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no snapshot taken")
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].BlocksBuilt < snaps[i-1].BlocksBuilt || snaps[i].CliquesFound < snaps[i-1].CliquesFound {
					t.Fatalf("snapshot %d regressed: %+v then %+v", i, snaps[i-1], snaps[i])
				}
			}
			if stats.Telemetry == nil || stats.Telemetry.BlocksBuilt == 0 {
				t.Fatalf("Stats.Telemetry = %+v", stats.Telemetry)
			}
			if got := eng.Snapshot().BlocksBuilt; got != stats.Telemetry.BlocksBuilt {
				t.Fatalf("engine blocks %d ≠ Stats.Telemetry blocks %d", got, stats.Telemetry.BlocksBuilt)
			}
		})
	}
}

func TestTelemetryOptionValidation(t *testing.T) {
	g := fromEdges(2, []Edge{{U: 0, V: 1}})
	bad := []Option{
		WithTelemetryEngine(nil),
	}
	for i, opt := range bad {
		if _, err := Enumerate(g, opt); err == nil {
			t.Errorf("bad telemetry option %d accepted", i)
		}
	}
}

func TestDistributedTelemetry(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	g := GenerateSocialNetwork(300, 4, 0.6, 7)
	res, err := Enumerate(g, WithWorkers(addrs...), WithTelemetryEngine(NewTelemetryEngine()), WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Telemetry
	if s == nil {
		t.Fatal("no telemetry on distributed run")
	}
	if s.RoundTripNs.Count == 0 || s.BytesSent == 0 || s.BytesReceived == 0 {
		t.Fatalf("coordinator wire metrics empty: %+v", s)
	}
	if s.QueueDepth != 0 || s.TasksInFlight != 0 {
		t.Fatalf("gauges leaked: queue=%d inflight=%d", s.QueueDepth, s.TasksInFlight)
	}
}
