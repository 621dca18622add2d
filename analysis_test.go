package mce

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCommunitiesFromResult(t *testing.T) {
	// Two K5s sharing one node 4: at k=4 they stay separate communities
	// (overlap 1 < k−1), at k=2 they merge.
	b := NewBuilder(9)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	for u := int32(4); u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Communities(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("k=4 communities = %d, want 2", len(cs))
	}
	merged, err := Communities(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || len(merged[0].Nodes) != 9 {
		t.Fatalf("k=2 communities = %+v", merged)
	}
	m := CommunityMembership(cs)
	if len(m[4]) != 2 {
		t.Fatalf("bridge node 4 should be in both communities: %v", m[4])
	}
	if _, err := Communities(res, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestKPlexesPublicAPI(t *testing.T) {
	// C4 is a maximal 2-plex.
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	plexes, err := KPlexes(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plexes) != 1 || len(plexes[0]) != 4 {
		t.Fatalf("plexes = %v", plexes)
	}
	if _, err := KPlexes(g, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTrackerPublicAPI(t *testing.T) {
	g := GenerateSocialNetwork(100, 4, 0.6, 9)
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(res.Cliques) {
		t.Fatalf("tracker %d cliques, engine %d", tr.Len(), len(res.Cliques))
	}
	// Evolve and compare against a fresh enumeration.
	added, removed, err := tr.AddEdge(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 && len(removed) == 0 && !g.HasEdge(0, 99) {
		t.Fatal("adding a fresh edge produced no delta")
	}
	empty := NewEmptyTracker(3)
	if empty.Len() != 3 {
		t.Fatalf("empty tracker = %d cliques", empty.Len())
	}
}

func TestGraphMetrics(t *testing.T) {
	g := GenerateBarabasiAlbert(500, 4, 3)
	s := GraphMetrics(g)
	if s.Nodes != 500 || s.Edges != g.M() || s.MaxDegree != g.MaxDegree() {
		t.Fatalf("metrics = %+v", s)
	}
	if s.Degeneracy < 4 || s.DStar < s.Degeneracy {
		t.Fatalf("sparsity metrics implausible: %+v", s)
	}
	cores := Coreness(g)
	if len(cores) != 500 {
		t.Fatalf("coreness length %d", len(cores))
	}
	maxCore := int32(0)
	for _, c := range cores {
		if c > maxCore {
			maxCore = c
		}
	}
	if int(maxCore) != s.Degeneracy {
		t.Fatalf("max coreness %d != degeneracy %d", maxCore, s.Degeneracy)
	}
	degs := Degrees(g)
	if len(degs) != 500 || degs[0] != g.Degree(0) {
		t.Fatalf("degree sequence wrong")
	}
}

func TestPartitionedPublicAPI(t *testing.T) {
	g := GenerateSocialNetwork(200, 4, 0.6, 5)
	dir := t.TempDir()
	if err := SavePartitioned(dir, g, 3); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("partitioned round trip: M = %d, want %d", g2.M(), g.M())
	}
	r1, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Enumerate(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cliques) != len(r2.Cliques) {
		t.Fatalf("clique count changed: %d vs %d", len(r1.Cliques), len(r2.Cliques))
	}
}

func TestVerifyResultAcceptsEngineOutput(t *testing.T) {
	g := GenerateSocialNetwork(300, 5, 0.7, 41)
	res, err := Enumerate(g, WithBlockRatio(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyResult(g, res); err != nil {
		t.Fatalf("engine output rejected: %v", err)
	}
}

func TestVerifyResultRejectsCorruption(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	good, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(r *Result)) error {
		r := &Result{
			Cliques: make([][]int32, len(good.Cliques)),
			Level:   append([]int(nil), good.Level...),
		}
		for i, c := range good.Cliques {
			r.Cliques[i] = append([]int32(nil), c...)
		}
		mutate(r)
		return VerifyResult(g, r)
	}
	cases := []struct {
		name   string
		mutate func(*Result)
	}{
		{"non-clique", func(r *Result) { r.Cliques[0] = []int32{0, 3} }},
		{"non-maximal", func(r *Result) { r.Cliques[0] = []int32{0, 1} }},
		{"duplicate", func(r *Result) { r.Cliques[1] = append([]int32(nil), r.Cliques[0]...) }},
		{"unsorted", func(r *Result) { c := r.Cliques[0]; c[0], c[1] = c[1], c[0] }},
		{"out-of-range", func(r *Result) { r.Cliques[0] = []int32{0, 99} }},
		{"empty-clique", func(r *Result) { r.Cliques[0] = nil }},
		{"level-mismatch", func(r *Result) { r.Level = r.Level[:1] }},
	}
	for _, c := range cases {
		if err := corrupt(c.mutate); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
}

// Relabelling invariance: enumerating an isomorphic copy yields the same
// clique count and size profile.
func TestEnumerationRelabelInvariant(t *testing.T) {
	g := GenerateSocialNetwork(400, 4, 0.7, 43)
	perm := make([]int32, g.N())
	for i := range perm {
		perm[i] = int32(i)
	}
	// Deterministic shuffle.
	seed := int64(99)
	for i := len(perm) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int((uint64(seed) >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	b := NewBuilder(g.N())
	for _, e := range gEdges(g) {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	h := b.Build()

	rg, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Enumerate(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(rg.Cliques) != len(rh.Cliques) {
		t.Fatalf("relabelling changed clique count: %d vs %d", len(rg.Cliques), len(rh.Cliques))
	}
	sizeHist := func(cs [][]int32) map[int]int {
		m := map[int]int{}
		for _, c := range cs {
			m[len(c)]++
		}
		return m
	}
	hg, hh := sizeHist(rg.Cliques), sizeHist(rh.Cliques)
	for size, n := range hg {
		if hh[size] != n {
			t.Fatalf("size-%d cliques: %d vs %d", size, n, hh[size])
		}
	}
}

func gEdges(g *Graph) []Edge { return g.Edges() }

func TestOutOfCorePublicAPI(t *testing.T) {
	g := GenerateSocialNetwork(500, 5, 0.7, 61)
	dir := t.TempDir()
	dpath := filepath.Join(dir, "g.mceg")
	if err := SaveDiskGraph(dpath, g); err != nil {
		t.Fatal(err)
	}
	want, err := Enumerate(g, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int32
	stats, err := EnumerateOutOfCore(dpath, func(c []int32, _ int) {
		cp := make([]int32, len(c))
		copy(cp, c)
		got = append(got, cp)
	}, WithBlockRatio(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Cliques) || stats.TotalCliques != len(got) {
		t.Fatalf("out-of-core %d cliques (stats %d), in-memory %d", len(got), stats.TotalCliques, len(want.Cliques))
	}
	wm := map[string]bool{}
	for _, c := range want.Cliques {
		wm[key(c)] = true
	}
	for _, c := range got {
		if !wm[key(c)] {
			t.Fatalf("spurious out-of-core clique {%s}", key(c))
		}
	}

	// Persist the result compactly and read it back.
	cpath := filepath.Join(dir, "cliques.mce")
	if err := SaveCliques(cpath, got); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCliques(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(got) {
		t.Fatalf("clique store round trip: %d vs %d", len(back), len(got))
	}
	if _, err := LoadCliques(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing clique store accepted")
	}
	if _, err := EnumerateOutOfCore(filepath.Join(dir, "absent"), func([]int32, int) {}); err == nil {
		t.Fatal("missing disk graph accepted")
	}
}

// TestOutOfCoreRefusesIgnoredOptions: EnumerateOutOfCore honours block size,
// ratio, combo and parallelism, and refuses — naming it — every other
// option instead of running without it.
func TestOutOfCoreRefusesIgnoredOptions(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.7, 1)
	dpath := filepath.Join(t.TempDir(), "g.mceg")
	if err := SaveDiskGraph(dpath, g); err != nil {
		t.Fatal(err)
	}
	want, err := CountMaxCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	count := func(opts ...Option) (int, error) {
		n := 0
		_, err := EnumerateOutOfCore(dpath, func([]int32, int) { n++ }, opts...)
		return n, err
	}
	for name, opt := range map[string]Option{
		"WithBlockSize":   WithBlockSize(20),
		"WithBlockRatio":  WithBlockRatio(0.3),
		"WithAlgorithm":   WithAlgorithm("Tomita", "BitSets"),
		"WithParallelism": WithParallelism(2),
	} {
		if got, err := count(opt); err != nil || got != want {
			t.Errorf("%s: %d cliques, %v; want %d", name, got, err, want)
		}
	}
	for name, opt := range map[string]Option{
		"WithIntraBlockParallelism": WithIntraBlockParallelism(2),
		"WithWorkers":               WithWorkers("127.0.0.1:1"),
		"WithTaskTimeout":           WithTaskTimeout(time.Second),
		"WithTaskRetries":           WithTaskRetries(5),
		"WithAutoReconnect":         WithAutoReconnect(),
		"WithHedgedDispatch":        WithHedgedDispatch(),
		"WithMemoryBudget":          WithMemoryBudget(1 << 30),
		"WithWorkerHealthReport":    WithWorkerHealthReport(func(HealthReport) {}),
		"WithTelemetryEngine":       WithTelemetryEngine(NewTelemetryEngine()),
		"WithCheckpoint":            WithCheckpoint(t.TempDir()),
		"WithCheckpointWarning":     WithCheckpointWarning(func(error) {}),
		"WithSkipPoisonTasks":       WithSkipPoisonTasks(),
		"WithPoisonReport":          WithPoisonReport(func([]PoisonVerdict) {}),
		"WithWorkerReport":          WithWorkerReport(func(DialReport) {}),
	} {
		if _, err := count(WithBlockRatio(0.3), opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want a refusal naming it", name, err)
		}
	}
}
