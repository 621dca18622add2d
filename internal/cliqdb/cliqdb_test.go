package cliqdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mce/internal/cliqstore"
	"mce/internal/gen"
	"mce/internal/mcealg"
)

// testCliques is a small hand-written family with overlap, duplicates
// across "segments", a shared pair, and size ties.
func testCliques() [][]int32 {
	return [][]int32{
		{0, 1, 2},
		{1, 2, 3, 4},
		{2, 5},
		{0, 6},
		{3, 4, 7},
		{5, 6, 7},
	}
}

func buildTestDB(t *testing.T, cliques [][]int32) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cliques.mcdb")
	if _, err := Build(cliques, path); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

// realCliques enumerates a deterministic synthetic social network with the
// repo's own algorithm, giving the index a realistic workload.
func realCliques(t testing.TB) [][]int32 {
	t.Helper()
	g := gen.HolmeKim(300, 5, 0.6, 7)
	cliques, err := mcealg.Collect(g, mcealg.Combo{Alg: mcealg.BKPivot, Struct: mcealg.BitSets})
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) == 0 {
		t.Fatal("enumeration yielded no cliques")
	}
	return cliques
}

func TestRoundTripQueries(t *testing.T) {
	cliques := testCliques()
	db, _ := buildTestDB(t, cliques)

	if db.NumCliques() != len(cliques) {
		t.Fatalf("NumCliques = %d, want %d", db.NumCliques(), len(cliques))
	}
	if db.NumVertices() != 8 {
		t.Fatalf("NumVertices = %d, want 8", db.NumVertices())
	}

	// Every clique must be retrievable, and the set must match the input.
	got := db.Cliques()
	want := append([][]int32{}, cliques...)
	sort.Slice(want, func(i, j int) bool { return compareCliques(want[i], want[j]) < 0 })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Cliques() = %v, want %v", got, want)
	}

	// cliques-of: brute-force cross-check for every vertex.
	for v := int32(0); v < db.NumVertices(); v++ {
		ids := db.AppendCliquesOf(nil, v)
		if db.CliqueCount(v) != len(ids) {
			t.Fatalf("CliqueCount(%d) = %d, posting has %d", v, db.CliqueCount(v), len(ids))
		}
		var wantCliques [][]int32
		for _, c := range want {
			for _, m := range c {
				if m == v {
					wantCliques = append(wantCliques, c)
				}
			}
		}
		if len(ids) != len(wantCliques) {
			t.Fatalf("CliquesOf(%d): %d cliques, want %d", v, len(ids), len(wantCliques))
		}
		for i, id := range ids {
			c := db.AppendClique(nil, id)
			if !reflect.DeepEqual(c, wantCliques[i]) {
				t.Fatalf("CliquesOf(%d)[%d] = %v, want %v", v, i, c, wantCliques[i])
			}
		}
	}

	// common-cliques: brute force over all pairs.
	for u := int32(0); u < db.NumVertices(); u++ {
		for v := int32(0); v < db.NumVertices(); v++ {
			ids := db.AppendCommonCliques(nil, u, v)
			wantN := 0
			for _, c := range want {
				hasU, hasV := false, false
				for _, m := range c {
					hasU = hasU || m == u
					hasV = hasV || m == v
				}
				if hasU && hasV {
					wantN++
				}
			}
			if len(ids) != wantN {
				t.Fatalf("CommonCliques(%d,%d): %d, want %d", u, v, len(ids), wantN)
			}
		}
	}

	// Out-of-range vertices: empty, not panic.
	if got := db.AppendCliquesOf(nil, -1); len(got) != 0 {
		t.Fatalf("CliquesOf(-1) = %v", got)
	}
	if got := db.AppendCliquesOf(nil, 99); len(got) != 0 {
		t.Fatalf("CliquesOf(99) = %v", got)
	}
	if got := db.AppendCommonCliques(nil, 0, 99); len(got) != 0 {
		t.Fatalf("CommonCliques(0,99) = %v", got)
	}
}

func TestTopKAndMinSize(t *testing.T) {
	db, _ := buildTestDB(t, testCliques())

	top := db.AppendTopK(nil, 2)
	if len(top) != 2 {
		t.Fatalf("TopK(2) returned %d ids", len(top))
	}
	if db.CliqueSize(top[0]) != 4 || db.CliqueSize(top[1]) != 3 {
		t.Fatalf("TopK sizes = %d, %d; want 4, 3", db.CliqueSize(top[0]), db.CliqueSize(top[1]))
	}
	// Ties broken by ascending ID.
	all := db.AppendTopK(nil, db.NumCliques()+10)
	if len(all) != db.NumCliques() {
		t.Fatalf("TopK(all) returned %d ids, want %d", len(all), db.NumCliques())
	}
	for i := 1; i < len(all); i++ {
		sa, sb := db.CliqueSize(all[i-1]), db.CliqueSize(all[i])
		if sa < sb || (sa == sb && all[i-1] >= all[i]) {
			t.Fatalf("TopK order violated at %d: id %d (size %d) before id %d (size %d)",
				i, all[i-1], sa, all[i], sb)
		}
	}

	if n := db.MinSizeCount(3); n != 4 {
		t.Fatalf("MinSizeCount(3) = %d, want 4", n)
	}
	if n := db.MinSizeCount(5); n != 0 {
		t.Fatalf("MinSizeCount(5) = %d, want 0", n)
	}
	ids := db.AppendMinSize(nil, 3)
	if len(ids) != 4 {
		t.Fatalf("MinSize(3) = %d ids, want 4", len(ids))
	}
	for _, id := range ids {
		if db.CliqueSize(id) < 3 {
			t.Fatalf("MinSize(3) returned clique of size %d", db.CliqueSize(id))
		}
	}
}

// TestAppendManyIntoOneBuffer appends 10⁴ cliques, and then every
// vertex's posting list, into one growing buffer each. Growth must be
// geometric: an exact-length grow per call made this quadratic.
func TestAppendManyIntoOneBuffer(t *testing.T) {
	const count = 10_000
	cliques := make([][]int32, count)
	for i := range cliques {
		v := int32(3 * i)
		cliques[i] = []int32{v, v + 1, v + 2}
	}
	db, _ := buildTestDB(t, cliques)
	var members []int32
	var ids []uint32
	cliqueAllocs := testing.AllocsPerRun(5, func() {
		members = nil
		for id := uint32(0); id < count; id++ {
			members = db.AppendClique(members, id)
		}
	})
	postingAllocs := testing.AllocsPerRun(5, func() {
		ids = nil
		for v := int32(0); v < db.NumVertices(); v++ {
			ids = db.AppendCliquesOf(ids, v)
		}
	})
	if len(members) != 3*count || len(ids) != 3*count {
		t.Fatalf("appended %d members and %d posting IDs, want %d each", len(members), len(ids), 3*count)
	}
	if cliqueAllocs > 64 || postingAllocs > 64 {
		t.Fatalf("appending into one buffer took %.0f allocations for cliques and %.0f for postings, want ≤ 64 each",
			cliqueAllocs, postingAllocs)
	}
	// A presized buffer still never grows.
	members = make([]int32, 0, 3*count)
	if n := testing.AllocsPerRun(5, func() {
		members = members[:0]
		for id := uint32(0); id < count; id++ {
			members = db.AppendClique(members, id)
		}
	}); n != 0 {
		t.Fatalf("a presized buffer took %.0f allocations", n)
	}
}

func TestBuildDeterministicAndOrderIndependent(t *testing.T) {
	cliques := realCliques(t)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.mcdb")
	p2 := filepath.Join(dir, "b.mcdb")
	if _, err := Build(cliques, p1); err != nil {
		t.Fatal(err)
	}
	// Same family in reversed input order, plus a duplicated clique: the
	// canonical sort + dedup must land on identical bytes.
	rev := make([][]int32, 0, len(cliques)+1)
	for i := len(cliques) - 1; i >= 0; i-- {
		rev = append(rev, cliques[i])
	}
	rev = append(rev, cliques[0])
	if _, err := Build(rev, p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("index bytes differ across input orderings")
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	cliques := [][]int32{{5, 6}, {0, 1}, {2, 3}}
	if _, err := Build(cliques, filepath.Join(t.TempDir(), "x.mcdb")); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cliques, [][]int32{{5, 6}, {0, 1}, {2, 3}}) {
		t.Fatalf("Build reordered its input: %v", cliques)
	}
}

func TestCompileSegmentsMatchesBuild(t *testing.T) {
	cliques := realCliques(t)
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Split the family over three segments, as a checkpointed run would.
	third := len(cliques) / 3
	writeSegment(t, filepath.Join(segDir, "L000-B000000.cliq"), cliques[:third])
	writeSegment(t, filepath.Join(segDir, "L000-B000001.cliq"), cliques[third:2*third])
	writeSegment(t, filepath.Join(segDir, "L001-B000000.cliq"), cliques[2*third:])

	fromSegs := filepath.Join(dir, "segs.mcdb")
	fromMem := filepath.Join(dir, "mem.mcdb")
	st, err := CompileSegments(segDir, fromSegs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cliques, fromMem); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(fromSegs)
	b2, _ := os.ReadFile(fromMem)
	if !bytes.Equal(b1, b2) {
		t.Fatal("segment compile and in-memory build disagree")
	}
	if st.Cliques == 0 || st.Bytes != int64(len(b1)) {
		t.Fatalf("BuildStats = %+v, file is %d bytes", st, len(b1))
	}
	db, err := Open(fromSegs)
	if err != nil {
		t.Fatal(err)
	}
	if db.Digest() != cliqstore.Digest(db.Cliques()) {
		t.Fatal("header digest does not match content")
	}
}

// writeSegment seals cliques into one cliqstore segment file. The members
// of each clique must already be ascending (mcealg emits them so).
func writeSegment(t testing.TB, path string, cliques [][]int32) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cliqstore.WriteAll(f, cliques); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	cliques := realCliques(t)
	path := filepath.Join(t.TempDir(), "cliques.mcdb")
	if _, err := Build(cliques, path); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every single-byte flip anywhere in the file must be detected.
	stride := len(pristine)/97 + 1
	for off := 0; off < len(pristine); off += stride {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x41
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		} else if !Rebuildable(err) {
			t.Fatalf("bit flip at offset %d: error not rebuildable: %v", off, err)
		}
	}

	// Every truncation point must be detected.
	for _, cut := range []int{0, 1, 7, 8, len(pristine) / 3, len(pristine) - 17, len(pristine) - 1} {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		} else if !Rebuildable(err) {
			t.Fatalf("truncation to %d: error not rebuildable: %v", cut, err)
		}
	}

	// And the pristine bytes still open.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatalf("pristine index failed to open: %v", err)
	}
}

// TestCompileSegmentsRefusesCheckpointDir pins the serving-segment
// contract: a run checkpoint's directory holds level-local,
// pre-Lemma-1-filter resume state, so compiling it — or anything kept
// inside it — would build an index with non-maximal cliques under wrong
// vertex labels. It must be refused, not compiled.
func TestCompileSegmentsRefusesCheckpointDir(t *testing.T) {
	ckpt := t.TempDir()
	segDir := filepath.Join(ckpt, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "journal.mcej"), []byte("j"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, filepath.Join(segDir, "L000-B000000.cliq"), testCliques())
	out := filepath.Join(t.TempDir(), "out.mcdb")
	for _, dir := range []string{ckpt, segDir} {
		if _, err := CompileSegments(dir, out); err == nil {
			t.Fatalf("CompileSegments accepted %s of a run checkpoint at %s", dir, ckpt)
		} else if !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("refusal does not explain the checkpoint contract: %v", err)
		}
	}
	// The same segments without a journal beside them are an ordinary
	// serving directory and compile fine.
	if err := os.Remove(filepath.Join(ckpt, "journal.mcej")); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileSegments(segDir, out); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsWrappingOffsets pins the subtraction-form bounds checks:
// offsets near 2^64 wrapped the old addition-form checks so openBytes
// panicked slicing instead of returning a rebuildable error.
func TestOpenRejectsWrappingOffsets(t *testing.T) {
	// Footer offset 2^64-8 inside a minimal 24-byte image.
	hugeFoot := append([]byte(nil), headMagic[:]...)
	hugeFoot = binary.LittleEndian.AppendUint64(hugeFoot, ^uint64(7))
	hugeFoot = append(hugeFoot, tailMagic[:]...)

	// A valid image whose CLIQ footer entry gets offset 2^64-5, with the
	// footer CRC recomputed so parsing reaches the section bounds check.
	image, _, err := encode(testCliques())
	if err != nil {
		t.Fatal(err)
	}
	footOff := binary.LittleEndian.Uint64(image[len(image)-trailerLen:])
	payLen := binary.LittleEndian.Uint64(image[footOff+4 : footOff+12])
	pay := image[footOff+12 : footOff+12+payLen]
	binary.LittleEndian.PutUint64(pay[4+1*24+4:], ^uint64(4))
	binary.LittleEndian.PutUint32(image[footOff+12+payLen:], crc32.ChecksumIEEE(pay))

	for name, img := range map[string][]byte{"footer": hugeFoot, "section": image} {
		if _, err := openBytes(img); err == nil {
			t.Errorf("%s offset near 2^64 went undetected", name)
		} else if !Rebuildable(err) {
			t.Errorf("%s offset near 2^64: error not rebuildable: %v", name, err)
		}
	}
}

func TestOpenOrRebuildSelfHeals(t *testing.T) {
	cliques := realCliques(t)
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	half := len(cliques) / 2
	writeSegment(t, filepath.Join(segDir, "L000-B000000.cliq"), cliques[:half])
	writeSegment(t, filepath.Join(segDir, "L000-B000001.cliq"), cliques[half:])
	path := filepath.Join(dir, "cliques.mcdb")

	// Missing index: rebuilt from segments.
	db, rebuilt, err := OpenOrRebuild(path, segDir)
	if err != nil || !rebuilt {
		t.Fatalf("missing index: rebuilt=%v err=%v", rebuilt, err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantCliques := db.NumCliques()

	// Healthy index: no rebuild.
	if _, rebuilt, err = OpenOrRebuild(path, segDir); err != nil || rebuilt {
		t.Fatalf("healthy index: rebuilt=%v err=%v", rebuilt, err)
	}

	// Corrupt index: detected, healed, byte-identical.
	mutated := append([]byte(nil), pristine...)
	mutated[len(mutated)/2] ^= 0xFF
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	db, rebuilt, err = OpenOrRebuild(path, segDir)
	if err != nil || !rebuilt {
		t.Fatalf("corrupt index: rebuilt=%v err=%v", rebuilt, err)
	}
	healed, _ := os.ReadFile(path)
	if !bytes.Equal(healed, pristine) {
		t.Fatal("self-healed index is not byte-identical to the original")
	}
	if db.NumCliques() != wantCliques {
		t.Fatalf("healed DB holds %d cliques, want %d", db.NumCliques(), wantCliques)
	}

	// No segment directory: the corruption is surfaced, not healed.
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = OpenOrRebuild(path, ""); err == nil {
		t.Fatal("corrupt index with no segments must fail")
	}

	// A truncated segment poisons the rebuild — the authoritative source
	// is bad and must not be papered over.
	seg := filepath.Join(segDir, "L000-B000000.cliq")
	segBytes, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, segBytes[:len(segBytes)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = OpenOrRebuild(path, segDir); !errors.Is(err, cliqstore.ErrTruncated) {
		t.Fatalf("rebuild from truncated segment: err = %v, want cliqstore.ErrTruncated", err)
	}
}

func TestEmptyIndex(t *testing.T) {
	db, _ := buildTestDB(t, nil)
	if db.NumCliques() != 0 || db.NumVertices() != 0 {
		t.Fatalf("empty index: %d cliques, %d vertices", db.NumCliques(), db.NumVertices())
	}
	if got := db.AppendCliquesOf(nil, 0); len(got) != 0 {
		t.Fatalf("CliquesOf on empty index = %v", got)
	}
	if got := db.AppendTopK(nil, 5); len(got) != 0 {
		t.Fatalf("TopK on empty index = %v", got)
	}
}

func TestBuildRejectsMalformedCliques(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range [][][]int32{
		{{}},
		{{3, 2}},
		{{1, 1}},
		{{-1, 2}},
	} {
		if _, err := Build(bad, filepath.Join(dir, "bad.mcdb")); err == nil {
			t.Fatalf("Build(%v) succeeded", bad)
		}
	}
}
