package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"sort"
	"testing"
	"time"

	"mce/internal/cluster/faultconn"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/telemetry"
)

// sortedDigest hashes the sorted clique-membership keys of a batch result —
// the canonical "sorted output digest" two runs are compared by. Block
// order, worker assignment and hedging races must never change it.
func sortedDigest(t *testing.T, out []family.Window) string {
	t.Helper()
	set := cliqueSet(t, out)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// startSlowWorker launches one worker whose every post-handshake read and
// write stalls for delay — a deterministic straggler, not a dead peer: it
// answers correctly, just far too late.
func startSlowWorker(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{DrainTimeout: 100 * time.Millisecond}
	go func() {
		_ = w.Serve(faultconn.Listener(ln, faultconn.Options{
			ReadDelay:  delay,
			WriteDelay: delay,
			SkipOps:    3, // let the handshake through: hello header, hello payload, ack
		}))
	}()
	t.Cleanup(func() { _ = w.Close() })
	return ln.Addr().String()
}

// TestChaosStragglerHedging is the acceptance test for hedged dispatch: a
// cluster with one worker delayed ~100× the healthy round trip must not
// wait for it — the straggler's blocks are speculatively re-dispatched and
// the first result wins — with the output digest equal to the uninterrupted
// run's.
func TestChaosStragglerHedging(t *testing.T) {
	// Client-side link simulation makes the healthy round trip a known
	// ~2×baseLatency, so "100× slower" is meaningful on a loopback where
	// real transport time is microseconds.
	const baseLatency = 10 * time.Millisecond
	const stragglerDelay = time.Second // per op: a round trip takes ≥ 3s

	g := gen.HolmeKim(300, 5, 0.7, 11)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	opts := func(met *telemetry.Engine) ClientOptions {
		return ClientOptions{
			Latency: baseLatency,
			Hedge:   true,
			Metrics: met,
		}
	}

	// Uninterrupted baseline: three healthy workers.
	healthyAddrs, stop, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	baseline, err := Dial(healthyAddrs, opts(telemetry.NewEngine()))
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	wantOut, err := analyzeBlocks(context.Background(), baseline, g, blocks, combo)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}

	// Straggler run: two healthy workers plus one delayed 100×.
	okAddrs, stop2, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	slowAddr := startSlowWorker(t, stragglerDelay)
	met := telemetry.NewEngine()
	hedged, err := Dial(append(okAddrs, slowAddr), opts(met))
	if err != nil {
		t.Fatal(err)
	}
	defer hedged.Close()
	gotOut, err := analyzeBlocks(context.Background(), hedged, g, blocks, combo)
	if err != nil {
		t.Fatalf("hedged straggler run failed: %v", err)
	}
	// Read before the straggler's first round trip can land: the batch
	// returned without waiting for any answer from the slow worker.
	for _, w := range hedged.HealthReport().Workers {
		if w.Addr == slowAddr && w.Tasks != 0 {
			t.Fatalf("the straggler completed %d tasks before the batch returned, want 0", w.Tasks)
		}
	}

	if got, want := sortedDigest(t, gotOut), sortedDigest(t, wantOut); got != want {
		t.Fatalf("hedged run digest %s differs from uninterrupted digest %s", got, want)
	}

	if met.Load(telemetry.HedgedDispatches) == 0 {
		t.Fatal("no hedged dispatches issued against a 100× straggler")
	}
	if met.Load(telemetry.HedgeWins) == 0 {
		t.Fatal("no hedge wins recorded: the straggler's blocks were not rescued")
	}
}

// TestChaosStragglerHedgeDedup pins first-wins dedup under hedging: even
// when the straggler's late duplicate eventually lands, every clique is
// reported exactly once (cliqueSet fails on duplicates) and the losing copy
// is counted as wasted rather than merged.
func TestChaosStragglerHedgeDedup(t *testing.T) {
	okAddrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// A mild straggler: slow enough to lose every race once hedging kicks
	// in, fast enough that its duplicate results land before the test ends.
	slowAddr := startSlowWorker(t, 60*time.Millisecond)

	met := telemetry.NewEngine()
	client, err := Dial(append(okAddrs, slowAddr), ClientOptions{
		Hedge:   true,
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(200, 4, 0.6, 31)
	blocks, combo := makeBlocks(g, g.MaxDegree()+1)
	out, err := analyzeBlocks(context.Background(), client, g, blocks, combo)
	if err != nil {
		t.Fatalf("hedged run failed: %v", err)
	}
	// cliqueSet fails the test on any duplicated clique across blocks.
	set := cliqueSet(t, out)
	if len(set) == 0 {
		t.Fatal("empty result")
	}
	if met.Load(telemetry.HedgedDispatches) == 0 {
		t.Fatal("hedging never fired against the slow worker")
	}
	// Give the straggler's in-flight duplicates a moment to land, then
	// confirm they were discarded, not merged: wasted + wins ≤ dispatches.
	time.Sleep(150 * time.Millisecond)
	// Every hedge win leaves the straggler's original attempt in flight, and
	// when it lands the claim must turn it away as wasted.
	for deadline := time.Now().Add(5 * time.Second); met.Load(telemetry.HedgeWins) > 0 && met.Load(telemetry.HedgeWasted) == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	wins, wasted, issued := met.Load(telemetry.HedgeWins), met.Load(telemetry.HedgeWasted), met.Load(telemetry.HedgedDispatches)
	if wins > 0 && wasted == 0 {
		t.Fatalf("%d hedge win(s) but no losing duplicate was discarded: the first-wins claim did not dedup", wins)
	}
	if wins+wasted > issued+int64(len(blocks)) {
		t.Fatalf("dedup accounting off: wins=%d wasted=%d issued=%d", wins, wasted, issued)
	}
}
