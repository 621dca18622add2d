package family

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomCliques draws n cliques of 0..maxLen members; empty ones included,
// since postings and block results of no cliques pass through families too.
func randomCliques(rng *rand.Rand, n, maxLen int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		c := make([]int32, rng.Intn(maxLen+1))
		for j := range c {
			c[j] = rng.Int31()
		}
		out[i] = c
	}
	return out
}

// same compares a family with the slices it was built from, clique by
// clique through At and all at once through Views.
func same(t *testing.T, f *Family, want [][]int32) {
	t.Helper()
	members := 0
	for _, c := range want {
		members += len(c)
	}
	if f.Len() != len(want) || f.Members() != members {
		t.Fatalf("family of %d cliques, %d members; want %d, %d", f.Len(), f.Members(), len(want), members)
	}
	views := f.Views(nil)
	if len(views) != len(want) || cap(views) != len(want) {
		t.Fatalf("Views(nil): len %d cap %d, want both %d", len(views), cap(views), len(want))
	}
	for i, c := range want {
		got := f.At(i)
		if len(got) != len(c) || cap(got) != len(c) {
			t.Fatalf("clique %d: len %d cap %d, want both %d", i, len(got), cap(got), len(c))
		}
		for j := range c {
			if got[j] != c[j] || views[i][j] != c[j] {
				t.Fatalf("clique %d = %v (view %v), want %v", i, got, views[i], c)
			}
		}
	}
}

// TestRoundTrip: whatever is appended comes back, in order, from At, Views
// and a Window over any stretch, and the input is copied, not kept.
func TestRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		want := randomCliques(rng, int(n), 12)
		fam := Of(want)
		same(t, fam, want)
		if len(want) > 2 {
			w := Window{F: fam, First: 1, Count: len(want) - 2}
			if got := w.Views(nil); !reflect.DeepEqual(got, fam.Views(nil)[1:len(want)-1]) {
				t.Fatalf("window views %v", got)
			}
		}
		for _, c := range want { // scribbling on the input must not reach the family
			for j := range c {
				c[j] = -1
			}
		}
		for i := 0; i < fam.Len(); i++ {
			for _, v := range fam.At(i) {
				if v < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaries walks the two places an offset could go wrong: the end of
// a chunk (a clique that fills it exactly, one that would straddle it, one
// longer than any chunk) and the end of an index page.
func TestBoundaries(t *testing.T) {
	clique := func(n int, tag int32) []int32 {
		c := make([]int32, n)
		for i := range c {
			c[i] = tag + int32(i)
		}
		return c
	}
	want := [][]int32{
		clique(chunkLen-5, 1), // chunk 0: 5 short of full
		clique(5, 2),          // fills chunk 0 exactly
		clique(1, 3),          // so this one opens chunk 1
		clique(chunkLen-1, 4), // fills chunk 1 exactly
		clique(2, 5),          // chunk 2
		clique(chunkLen-1, 6), // would straddle: chunk 3, leaving chunk 2 nearly empty
		clique(chunkLen+7, 7), // longer than a chunk: one of its own
		nil,                   // an empty clique right behind it
		clique(3, 8),
	}
	fam := Of(want)
	same(t, fam, want)
	if got := fam.used; got != 6 {
		t.Fatalf("%d chunks in use, want 6", got)
	}
	for i, c := range fam.chunks[:fam.used] {
		if i != 4 && len(c) > chunkLen {
			t.Fatalf("chunk %d holds %d members, over chunkLen", i, len(c))
		}
	}

	// Index pages: one clique short of a page, exactly a page, one over.
	for _, n := range []int{pageLen - 1, pageLen, pageLen + 1, 2*pageLen + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		want := randomCliques(rng, n, 3)
		same(t, Of(want), want)
	}
}

// TestTruncateAndReset: a family cut back to any length is the prefix, what
// is appended afterwards lands behind it, and a family truncated to 0 refills
// from the capacity it kept without allocating.
func TestTruncateAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := randomCliques(rng, 3*pageLen+17, 40) // several pages, several chunks
	fam := Of(want)
	if fam.used < 3 {
		t.Fatalf("only %d chunks: the test would not cross a chunk boundary", fam.used)
	}
	for _, n := range []int{len(want), len(want) - 1, 2*pageLen + 1, 2 * pageLen, pageLen - 1, 1, 0} {
		fam.Truncate(n)
		same(t, fam, want[:n])
		extra := randomCliques(rng, 5, 9)
		for _, c := range extra {
			fam.Append(c)
		}
		same(t, fam, append(want[:n:n], extra...))
		fam.Truncate(n)
	}

	fam = Of(want)
	held := fam.ArenaBytes()
	refill := func() {
		fam.Truncate(0)
		for _, c := range want {
			fam.Append(c)
		}
	}
	if allocs := testing.AllocsPerRun(5, refill); allocs != 0 {
		t.Fatalf("refilling a reset family allocated %.0f times", allocs)
	}
	same(t, fam, want)
	if fam.ArenaBytes() != held {
		t.Fatalf("arena went from %d to %d bytes across Truncate(0) and refill", held, fam.ArenaBytes())
	}
}

// TestAppendToViewCopies: a view is clipped to its own capacity, so
// appending to it reallocates and the next clique is untouched; writing in
// place is seen through the family.
func TestAppendToViewCopies(t *testing.T) {
	fam := Of([][]int32{{1, 2, 3}, {4, 5}, {6}})
	grown := append(fam.At(0), 99)
	if !reflect.DeepEqual(fam.At(1), []int32{4, 5}) {
		t.Fatalf("append to clique 0 wrote into clique 1: %v", fam.At(1))
	}
	grown[0] = -1
	if fam.At(0)[0] != 1 {
		t.Fatal("the appended-to copy still aliases the family")
	}
	fam.At(1)[0] = 40
	if !reflect.DeepEqual(fam.Views(nil), [][]int32{{1, 2, 3}, {40, 5}, {6}}) {
		t.Fatalf("in-place write not seen: %v", fam.Views(nil))
	}
}

// TestViewsGrowsOnce: Views extends dst in place when it has the room and
// otherwise reallocates once, to exactly what is needed.
func TestViewsGrowsOnce(t *testing.T) {
	fam := Of([][]int32{{1}, {2, 3}, {4}})
	roomy := make([][]int32, 1, 8)
	if got := fam.Views(roomy); len(got) != 4 || &got[0] != &roomy[0] {
		t.Fatalf("Views moved a dst that had room (len %d)", len(got))
	}
	tight := make([][]int32, 2, 3)
	if got := fam.Views(tight); len(got) != 5 || cap(got) != 5 {
		t.Fatalf("Views grew a tight dst to len %d cap %d, want 5 and 5", len(got), cap(got))
	}
	if allocs := testing.AllocsPerRun(10, func() { fam.Window().Views(nil) }); allocs != 1 {
		t.Fatalf("Views(nil) allocated %.0f times, want 1", allocs)
	}
}

// TestSmallFamilyStaysSmall: a family of a few cliques must not pay for a
// full chunk or a full index page — intra-block pool workers and remote
// answers make one each.
func TestSmallFamilyStaysSmall(t *testing.T) {
	fam := Of([][]int32{{1, 2, 3}, {4, 5}})
	if held := fam.ArenaBytes(); held > 256 {
		t.Fatalf("a 5-member family holds %d bytes", held)
	}
	var empty Family
	if empty.Len() != 0 || empty.Members() != 0 || empty.ArenaBytes() != 0 || len(empty.Views(nil)) != 0 {
		t.Fatal("the zero Family is not empty")
	}
	empty.Truncate(0)
	if w := empty.Window(); w.Count != 0 {
		t.Fatal("the window over an empty family is not empty")
	}
}

func BenchmarkAppend(b *testing.B) {
	clique := []int32{3, 17, 41, 58, 90, 131, 160, 201, 215, 220}
	var fam Family
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fam.Len() == 1<<20 {
			fam.Truncate(0)
		}
		fam.Append(clique)
	}
}
