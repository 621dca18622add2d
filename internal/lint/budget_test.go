package lint

import (
	"reflect"
	"testing"
)

// TestCarryNotes: the budget file promises that notes survive regeneration.
// A key that is still there keeps its note; a key that is new inherits the
// note of a key that vanished from the same function when only the
// compiler's wording of the site changed; anything less certain — another
// function, two equally close candidates, an unrelated expression — starts
// without a note rather than with a wrong one.
func TestCarryNotes(t *testing.T) {
	const fn = "mce/internal/core::(*LocalExecutor).Analyze::"
	prev := []BudgetEntry{
		{Site: fn + "new(decomp.Analyzer) escapes to heap", Count: 1, Note: "per-worker scratch"},
		{Site: fn + "make([][][]int32, len(blocks)) escapes to heap", Count: 1, Note: "per-batch setup"},
		{Site: fn + "make([]int32, len(c)) escapes to heap", Count: 1, Note: "per-clique copy"},
		{Site: fn + "&Materialiser{...} escapes to heap", Count: 1, Note: "materialise scratch"},
		{Site: fn + "func literal escapes to heap", Count: 2}, // no note to carry
		{Site: "mce/internal/core::selector::make([]family.Window, len(blocks)) escapes to heap", Count: 1, Note: "another function's"},
		{Site: fn + "make([]int, a) escapes to heap", Count: 1, Note: "twin a"},
		{Site: fn + "make([]int, b) escapes to heap", Count: 1, Note: "twin b"},
	}
	keys := []string{
		fn + "&decomp.Materialiser{...} escapes to heap",          // reworded: qualified type
		fn + "fam.Append escapes to heap",                         // new site, nothing like it before
		fn + "func literal escapes to heap",                       // unchanged, never had a note
		fn + "make([]family.Window, len(blocks)) escapes to heap", // reworded: element type
		fn + "make([]int, c) escapes to heap",                     // two vanished twins tie for it
		fn + "new(decomp.Analyzer) escapes to heap",               // unchanged
		fn + "new(family.Family) escapes to heap",                 // new site
	}
	want := map[string]string{
		fn + "&decomp.Materialiser{...} escapes to heap":          "materialise scratch",
		fn + "make([]family.Window, len(blocks)) escapes to heap": "per-batch setup",
		fn + "new(decomp.Analyzer) escapes to heap":               "per-worker scratch",
	}
	notes := carryNotes(keys, prev)
	got := map[string]string{}
	for _, k := range keys {
		if notes[k] != "" {
			got[k] = notes[k]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("carried notes:\n got %v\nwant %v", got, want)
	}
	for _, k := range keys {
		if note := carryNotes(keys, nil)[k]; note != "" {
			t.Fatalf("a note out of nothing: %s: %q", k, note)
		}
	}
}
