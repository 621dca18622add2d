package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"mce/internal/mcealg"
)

func TestCounterAndGauge(t *testing.T) {
	e := NewEngine()
	e.Inc(BytesSent)
	e.Add(BytesSent, 41)
	if got := e.Load(BytesSent); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	e.Move(QueueDepth, 5)
	e.Move(QueueDepth, -2)
	if got := e.Snapshot().QueueDepth; got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	e.Set(QueueDepth, -7)
	if got := e.Snapshot().QueueDepth; got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
	if got := e.Load(BytesReceived); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30})
	for _, v := range []int64{5, 9, 10, 15, 29, 30, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 2} // [<10, 10..19, 20..29, ≥30]
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 7 || s.Sum != 5+9+10+15+29+30+100 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if s.Min != 5 || s.Max != 100 {
		t.Fatalf("min=%d max=%d, want 5/100", s.Min, s.Max)
	}
	if m := s.Mean(); math.Abs(m-float64(s.Sum)/7) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	s := NewHistogram([]int64{1}).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", s)
	}
}

func TestHistogramCountBelow(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30})
	for _, v := range []int64{1, 9, 10, 19, 25} {
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		bound int64
		n     int64
		exact bool
	}{
		{10, 2, true},  // boundary: exact
		{20, 4, true},  // boundary: exact
		{30, 5, true},  // boundary: exact
		{15, 2, false}, // inside occupied bucket: inexact lower bound
		{40, 5, true},  // past the last bound, overflow empty: exact
	}
	for _, c := range cases {
		n, exact := s.CountBelow(c.bound)
		if n != c.n || exact != c.exact {
			t.Fatalf("CountBelow(%d) = (%d, %v), want (%d, %v)", c.bound, n, exact, c.n, c.exact)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30, 40})
	for v := int64(0); v < 40; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v, want 0", q)
	}
	if q := s.Quantile(1); q < 30 || q > 40 {
		t.Fatalf("q1 = %v, want within the last bucket", q)
	}
	if q := s.Quantile(0.5); q < 10 || q > 30 {
		t.Fatalf("median = %v, want near 20", q)
	}
}

func TestNewHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestDurationHistogramCoversTypicalLatencies(t *testing.T) {
	h := NewDurationHistogram()
	h.Observe(int64(500 * time.Nanosecond))
	h.Observe(int64(3 * time.Millisecond))
	h.Observe(int64(2 * time.Minute))
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	// 2 minutes must land in a regular bucket, not overflow.
	if s.Buckets[len(s.Buckets)-1] != 0 {
		t.Fatalf("2m fell into overflow: %v", s.Buckets)
	}
}

func TestEngineSnapshotAndJSON(t *testing.T) {
	e := NewEngine()
	e.Add(BlocksBuilt, 4)
	e.Add(KernelNodes, 10)
	e.Set(QueueDepth, 2)
	e.ComboPicked(5)
	e.ComboPicked(5)
	e.ComboAnalyzed(5, 3*time.Millisecond)
	e.Observe(RoundTripNs, time.Millisecond)
	e.Add(RecursionNodes, 7)
	e.Add(PivotSelections, 3)

	s := e.Snapshot()
	if s.BlocksBuilt != 4 || s.KernelNodes != 10 || s.QueueDepth != 2 {
		t.Fatalf("snapshot core fields wrong: %+v", s)
	}
	if s.RecursionNodes != 7 || s.PivotSelections != 3 {
		t.Fatalf("recursion counts not added: %+v", s)
	}
	if s.BlocksAnalyzed != 1 || s.BlockNs.Count != 1 || s.RoundTripNs.Count != 1 {
		t.Fatalf("ComboAnalyzed or Observe not reflected: %+v", s)
	}
	if len(s.Combos) != 1 || s.Combos[0].Combo != "[Lists/Tomita]" ||
		s.Combos[0].Picks != 2 || s.Combos[0].Blocks != 1 || s.Combos[0].TotalNs != int64(3*time.Millisecond) {
		t.Fatalf("combo stats wrong: %+v", s.Combos)
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BlocksBuilt != 4 || len(back.Combos) != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestComboOutOfRangeIgnored(t *testing.T) {
	e := NewEngine()
	e.ComboPicked(-1)
	e.ComboPicked(mcealg.NumCombos)
	e.ComboAnalyzed(99, time.Millisecond)
	s := e.Snapshot()
	if len(s.Combos) != 0 {
		t.Fatalf("out-of-range combo recorded: %+v", s.Combos)
	}
	// The global counters still advance: the block genuinely was analysed.
	if s.BlocksAnalyzed != 1 {
		t.Fatalf("BlocksAnalyzed = %d", s.BlocksAnalyzed)
	}
}

// TestConcurrentUpdates hammers every metric kind from parallel goroutines —
// the shape of concurrent block workers — and checks the totals. Run under
// -race this also proves the update paths are data-race-free.
func TestConcurrentUpdates(t *testing.T) {
	e := NewEngine()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.Inc(BlocksBuilt)
				e.Move(QueueDepth, 1)
				e.ComboPicked(w % mcealg.NumCombos)
				e.ComboAnalyzed(w%mcealg.NumCombos, time.Duration(i)*time.Microsecond)
				e.Observe(RoundTripNs, time.Duration(i))
				e.Add(RecursionNodes, 2)
				e.Add(PivotSelections, 1)
				e.Move(QueueDepth, -1)
				if i%500 == 0 {
					_ = e.Snapshot() // snapshots race the updates by design
				}
			}
		}(w)
	}
	wg.Wait()
	s := e.Snapshot()
	total := int64(workers * perWorker)
	if s.BlocksBuilt != total || s.BlocksAnalyzed != total {
		t.Fatalf("counts lost updates: built=%d analysed=%d want %d", s.BlocksBuilt, s.BlocksAnalyzed, total)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth = %d, want 0", s.QueueDepth)
	}
	if s.RecursionNodes != 2*total || s.PivotSelections != total {
		t.Fatalf("recursion counts lost updates: %d/%d", s.RecursionNodes, s.PivotSelections)
	}
	if s.RoundTripNs.Count != total || s.BlockNs.Count != total {
		t.Fatalf("histogram lost updates: %d/%d", s.RoundTripNs.Count, s.BlockNs.Count)
	}
	var picks int64
	for _, c := range s.Combos {
		picks += c.Picks
	}
	if picks != total {
		t.Fatalf("combo picks = %d, want %d", picks, total)
	}
	if s.RoundTripNs.Min != 0 || s.RoundTripNs.Max != perWorker-1 {
		t.Fatalf("histogram min/max = %d/%d", s.RoundTripNs.Min, s.RoundTripNs.Max)
	}
}

// TestHotPathZeroAllocs is the dynamic half of the hotalloc gate for the
// instrumentation fast paths: the //mce:hotpath-annotated engine methods
// (Inc, Add, Move, Observe, Lap, ComboPicked, ComboAnalyzed) and what a
// worker or a level records per block have no entry in
// .mcevet/allocbudget.json, so a run must observe zero allocations too —
// on a nil engine (telemetry off) and on a live one.
func TestHotPathZeroAllocs(t *testing.T) {
	h := NewDurationHistogram()
	for _, e := range []*Engine{nil, NewEngine()} {
		allocs := testing.AllocsPerRun(100, func() {
			h.Observe(17)
			e.Inc(TasksServed)
			e.Add(RecursionNodes, 5)
			e.Add(PivotSelections, 2)
			e.Move(TasksInFlight, 1)
			t0 := e.Now()
			t0 = e.Lap(InduceNs, t0)
			t0 = e.Lap(SelectNs, t0)
			e.ComboPicked(3)
			e.ComboAnalyzed(3, e.Since(t0))
			e.Observe(RoundTripNs, time.Microsecond)
			e.Move(TasksInFlight, -1)
			e.Set(CheckpointDegraded, 0)
			e.Add(FamilyMembers, 40) // what a level records of its arenas
			e.Add(FamilyArenaBytes, 1<<18)
			_ = e.Load(InduceNs)
		})
		if allocs != 0 {
			t.Fatalf("engine %p: telemetry fast paths allocate %v/run, want 0", e, allocs)
		}
	}
}
