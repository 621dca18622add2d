package dtree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mce/internal/kcore"
	"mce/internal/mcealg"
)

func feat(nodes, edges int, density float64, degeneracy, dstar int) kcore.Features {
	return kcore.Features{
		Nodes: nodes, Edges: edges, Density: density,
		Degeneracy: degeneracy, DStar: dstar,
	}
}

var (
	comboA = mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}
	comboB = mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}
	comboC = mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.Matrix}
)

func TestFeatureStrings(t *testing.T) {
	names := []string{"#nodes", "#edges", "density", "degeneracy", "d*"}
	for f := Feature(0); f < numFeatures; f++ {
		if f.String() != names[f] {
			t.Errorf("Feature(%d).String = %q, want %q", f, f.String(), names[f])
		}
	}
	if Feature(99).String() == "" {
		t.Errorf("unknown feature must render")
	}
}

func TestTrainPureSet(t *testing.T) {
	samples := []Sample{
		{feat(10, 20, 0.4, 3, 4), comboA},
		{feat(50, 100, 0.1, 8, 9), comboA},
	}
	tree := Train(samples, Options{})
	if tree.Depth() != 1 || tree.Leaves() != 1 {
		t.Fatalf("pure set should give a single leaf, got depth %d", tree.Depth())
	}
	if got := tree.Predict(feat(999, 999, 0.9, 99, 99)); got != comboA {
		t.Fatalf("Predict = %v, want %v", got, comboA)
	}
}

func TestTrainSeparableByDegeneracy(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{feat(100+i, 500, 0.2, 10+i, 12), comboB})
		samples = append(samples, Sample{feat(100+i, 500, 0.2, 60+i, 70), comboA})
	}
	tree := Train(samples, Options{})
	if got := tree.Predict(feat(105, 500, 0.2, 12, 12)); got != comboB {
		t.Fatalf("low degeneracy → %v, want %v", got, comboB)
	}
	if got := tree.Predict(feat(105, 500, 0.2, 65, 70)); got != comboA {
		t.Fatalf("high degeneracy → %v, want %v", got, comboA)
	}
	if tree.Depth() != 2 {
		t.Fatalf("one split suffices, got depth %d:\n%s", tree.Depth(), tree)
	}
}

func TestTrainTwoLevelStructure(t *testing.T) {
	// Labels determined by (degeneracy > 30, nodes > 1000) — needs two
	// levels.
	var samples []Sample
	for i := 0; i < 12; i++ {
		samples = append(samples, Sample{feat(100+i, 300, 0.3, 40+i, 45), comboA})  // high deg, small
		samples = append(samples, Sample{feat(5000+i, 300, 0.3, 40+i, 45), comboC}) // high deg, big
		samples = append(samples, Sample{feat(100+i, 300, 0.3, 5+i%3, 8), comboB})  // low deg
		samples = append(samples, Sample{feat(5000+i, 300, 0.3, 5+i%3, 8), comboB}) // low deg
	}
	tree := Train(samples, Options{})
	cases := []struct {
		f    kcore.Features
		want mcealg.Combo
	}{
		{feat(200, 300, 0.3, 45, 45), comboA},
		{feat(6000, 300, 0.3, 45, 45), comboC},
		{feat(200, 300, 0.3, 6, 8), comboB},
		{feat(6000, 300, 0.3, 6, 8), comboB},
	}
	for _, c := range cases {
		if got := tree.Predict(c.f); got != c.want {
			t.Fatalf("Predict(%+v) = %v, want %v\n%s", c.f, got, c.want, tree)
		}
	}
}

func TestTrainRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var samples []Sample
	combos := []mcealg.Combo{comboA, comboB, comboC}
	for i := 0; i < 200; i++ {
		samples = append(samples, Sample{
			feat(rng.Intn(5000), rng.Intn(50000), rng.Float64(), rng.Intn(100), rng.Intn(200)),
			combos[rng.Intn(3)],
		})
	}
	tree := Train(samples, Options{MaxDepth: 3})
	if tree.Depth() > 4 { // depth counts leaves; 3 splits + leaf level
		t.Fatalf("depth %d exceeds MaxDepth+1", tree.Depth())
	}
}

func TestTrainEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Train(nil) did not panic")
		}
	}()
	Train(nil, Options{})
}

func TestTrainConstantFeatures(t *testing.T) {
	// All features identical but labels differ: no valid split exists; the
	// tree must fall back to a majority leaf rather than loop.
	samples := []Sample{
		{feat(10, 10, 0.5, 5, 5), comboA},
		{feat(10, 10, 0.5, 5, 5), comboA},
		{feat(10, 10, 0.5, 5, 5), comboB},
	}
	tree := Train(samples, Options{})
	if tree.Leaves() != 1 {
		t.Fatalf("expected single majority leaf, got %d leaves", tree.Leaves())
	}
	if got := tree.Predict(feat(10, 10, 0.5, 5, 5)); got != comboA {
		t.Fatalf("majority = %v, want %v", got, comboA)
	}
}

func TestPublishedTreeShape(t *testing.T) {
	tree := Published()
	if tree.Leaves() != 4 {
		t.Fatalf("published tree has %d leaves, want 4", tree.Leaves())
	}
	cases := []struct {
		f    kcore.Features
		want mcealg.Combo
	}{
		// degeneracy ≤ 25 → Lists/XPivot.
		{feat(100, 500, 0.1, 10, 15), mcealg.Combo{Alg: mcealg.XPivot, Struct: mcealg.Lists}},
		// degeneracy > 25, nodes ≥ 8558 → Matrix/XPivot.
		{feat(10000, 50000, 0.1, 30, 40), mcealg.Combo{Alg: mcealg.XPivot, Struct: mcealg.Matrix}},
		// degeneracy > 52, nodes < 8558 → BitSets/Tomita.
		{feat(1000, 50000, 0.3, 60, 80), mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}},
		// 25 < degeneracy ≤ 52, nodes < 8558 → Matrix/BKPivot.
		{feat(1000, 20000, 0.2, 40, 50), mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.Matrix}},
	}
	for _, c := range cases {
		if got := tree.Predict(c.f); got != c.want {
			t.Fatalf("Published().Predict(%+v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestStringRendersAllLeaves(t *testing.T) {
	s := Published().String()
	for _, want := range []string{"degeneracy > 25", "[Lists/XPivot]", "[BitSets/Tomita]", "[Matrix/BKPivot]", "[Matrix/XPivot]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering misses %q:\n%s", want, s)
		}
	}
}

// TestSafePredictDegradesMatrix: Matrix and BitSets are one
// n²/8-byte store, so a pick of either above the bound runs the same
// algorithm over Lists, and nothing below the bound is touched.
func TestSafePredictDegradesMatrix(t *testing.T) {
	big, small := mcealg.MatrixMaxNodes+1, mcealg.MatrixMaxNodes
	constant := func(c mcealg.Combo) *Tree { return &Tree{root: &node{leaf: true, combo: c}} }
	for _, tc := range []struct {
		name  string
		tree  *Tree
		f     kcore.Features
		nodes int
		want  mcealg.Combo
	}{
		{"matrix pick above", Published(), feat(0, 1e6, 0.001, 30, 40), big, mcealg.Combo{Alg: mcealg.XPivot, Struct: mcealg.Lists}},
		{"matrix pick at the bound", Published(), feat(0, 1e6, 0.001, 30, 40), small, mcealg.Combo{Alg: mcealg.XPivot, Struct: mcealg.Matrix}},
		{"bitsets pick above", constant(comboA), kcore.Features{}, big, mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.Lists}},
		{"bitsets pick at the bound", constant(comboA), kcore.Features{}, small, mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}},
		{"lists pick above", constant(comboB), kcore.Features{}, big, mcealg.Combo{Alg: mcealg.Eppstein, Struct: mcealg.Lists}},
	} {
		tc.f.Nodes = tc.nodes
		if got := SafePredict(tc.tree, tc.f); got != tc.want {
			t.Errorf("%s: SafePredict = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: training on linearly separable labels yields perfect training
// accuracy.
func TestQuickSeparableAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		thr := float64(rng.Intn(80) + 10)
		var samples []Sample
		for i := 0; i < 60; i++ {
			d := rng.Intn(200)
			c := comboA
			if float64(d) <= thr {
				c = comboB
			}
			samples = append(samples, Sample{feat(rng.Intn(1000)+10, rng.Intn(9000), rng.Float64(), d, d+rng.Intn(10)), c})
		}
		tree := Train(samples, Options{MinLeaf: 1})
		for _, s := range samples {
			if tree.Predict(s.F) != s.Best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Predict is total — it returns one of the training labels for
// arbitrary feature vectors.
func TestQuickPredictTotal(t *testing.T) {
	samples := []Sample{
		{feat(10, 20, 0.1, 2, 3), comboA},
		{feat(1000, 20000, 0.6, 50, 60), comboB},
		{feat(100, 200, 0.3, 10, 12), comboC},
		{feat(5000, 90000, 0.01, 25, 30), comboA},
	}
	tree := Train(samples, Options{MinLeaf: 1})
	valid := map[mcealg.Combo]bool{comboA: true, comboB: true, comboC: true}
	f := func(nodes, edges uint16, density float64, degeneracy, dstar uint8) bool {
		got := tree.Predict(feat(int(nodes), int(edges), density, int(degeneracy), int(dstar)))
		return valid[got]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Published tree splits on degeneracy twice and #nodes once.
	imp := Published().FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance features = %v", imp)
	}
	if imp[FeatDegeneracy] <= imp[FeatNodes] {
		t.Fatalf("degeneracy should dominate: %v", imp)
	}
	sum := 0.0
	for _, w := range imp {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importance does not normalise: %v", sum)
	}
	// A trained single-leaf tree has no splits at all.
	leaf := Train([]Sample{
		{feat(1, 1, 0.1, 1, 1), comboA},
		{feat(2, 2, 0.2, 2, 2), comboA},
	}, Options{})
	if got := leaf.FeatureImportance(); len(got) != 0 {
		t.Fatalf("pure tree importance = %v", got)
	}
	// Trained trees weight by sample counts.
	var samples []Sample
	for i := 0; i < 20; i++ {
		c := comboA
		if i%2 == 0 {
			c = comboB
		}
		samples = append(samples, Sample{feat(100+i, 500, 0.2, 10+50*(i%2), 15), c})
	}
	tr := Train(samples, Options{})
	imp = tr.FeatureImportance()
	if len(imp) == 0 {
		t.Fatalf("trained tree has no importance")
	}
}
