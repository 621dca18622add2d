package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The allocation budget: hot-path allocations that are understood and
// accepted — per-subproblem snapshots in the work-stealing donation path,
// the one-time label store of a telemetry counter — live in a committed
// .mcevet/allocbudget.json, and hotalloc reconciles the compiler's escape
// decisions against it. A site in the budget passes; a *new* site fails
// until a human either removes it or re-runs `mcevet -update-allocbudget`
// and commits the diff, which makes every new hot-path allocation a
// reviewable event rather than a silent regression.
//
// Budget keys are "<pkgpath>::<func>::<compiler message>", e.g.
//
//	mce/internal/mcealg::(*parWorker).splitOrdered::make([]int32, len(order)) escapes to heap
//
// The message is the compiler's own text, so the key pins the exact
// expression; count is the number of identical sites allowed under the key
// (distinct lines with the same expression in the same function).

// DefaultBudgetPath is the budget file location relative to the module (or
// fixture) root.
const DefaultBudgetPath = ".mcevet/allocbudget.json"

// BudgetEntry is one accepted allocation site class.
type BudgetEntry struct {
	Site  string `json:"site"`
	Count int    `json:"count"`
	Note  string `json:"note,omitempty"`
}

// budgetFile is the on-disk shape of .mcevet/allocbudget.json.
type budgetFile struct {
	Comment string        `json:"comment,omitempty"`
	Sites   []BudgetEntry `json:"sites"`
}

const budgetComment = "Accepted hot-path allocations; regenerate with `go run ./cmd/mcevet -update-allocbudget`. Notes survive regeneration."

// allocBudget is one loaded budget file.
type allocBudget struct {
	path   string
	counts map[string]int
	notes  map[string]string
	raw    []byte // for line-of-entry lookup in diagnostics
}

// budgetKey builds the canonical key of one allocation site class.
func budgetKey(pkgPath, funcName, msg string) string {
	return pkgPath + "::" + funcName + "::" + msg
}

// findBudgetFile walks up from dir looking for .mcevet/allocbudget.json —
// the same nearest-ancestor rule go.mod resolution uses, so fixture trees
// under testdata can carry their own budget while the module root owns the
// real one. Returns "" when no budget exists.
func findBudgetFile(dir string) string {
	for {
		p := filepath.Join(dir, DefaultBudgetPath)
		if _, err := os.Stat(p); err == nil {
			return p
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// budgetFor loads the budget governing pkg (nearest ancestor of its
// directory), memoised per resolved path. A missing budget file is an empty
// budget, not an error: the gate then rejects every hot allocation, which
// is the right default for a tree that never accepted any.
func budgetFor(s *Suite, pkg *Package) (*allocBudget, error) {
	type result struct {
		b   *allocBudget
		err error
	}
	r := s.Memo("allocbudget:"+pkg.Dir, func() any {
		path := findBudgetFile(pkg.Dir)
		if path == "" {
			return result{b: &allocBudget{counts: map[string]int{}, notes: map[string]string{}}}
		}
		b, err := loadBudget(path)
		return result{b: b, err: err}
	}).(result)
	return r.b, r.err
}

func loadBudget(path string) (*allocBudget, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: reading allocation budget: %v", err)
	}
	var f budgetFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
	}
	b := &allocBudget{
		path:   path,
		counts: make(map[string]int, len(f.Sites)),
		notes:  make(map[string]string, len(f.Sites)),
		raw:    raw,
	}
	for _, e := range f.Sites {
		n := e.Count
		if n < 1 {
			n = 1
		}
		b.counts[e.Site] += n
		if e.Note != "" {
			b.notes[e.Site] = e.Note
		}
	}
	return b, nil
}

// lineOf locates a site key inside the raw budget file so stale-entry
// diagnostics point at the entry itself, not at code.
func (b *allocBudget) lineOf(site string) int {
	enc, err := json.Marshal(site)
	if err != nil {
		return 1
	}
	i := bytes.Index(b.raw, enc)
	if i < 0 {
		return 1
	}
	return 1 + bytes.Count(b.raw[:i], []byte("\n"))
}

// entriesFor returns the budget keys scoped to pkgPath, sorted — the
// stale-entry check iterates these.
func (b *allocBudget) entriesFor(pkgPath string) []string {
	var keys []string
	prefix := pkgPath + "::"
	for k := range b.counts {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// CollectAllocBudget computes the current hot-path allocation sites of the
// loaded packages — the content `mcevet -update-allocbudget` writes. Notes
// from prev (the previously committed entries, may be nil) are carried over
// as carryNotes decides.
func CollectAllocBudget(pkgs []*Package, prev []BudgetEntry) ([]BudgetEntry, error) {
	suite := newSuite(pkgs)
	h := hotData(suite)
	counts := make(map[string]int)
	for _, pkg := range suite.Pkgs {
		decls := h.declsIn(pkg)
		if len(decls) == 0 {
			continue
		}
		esc, err := escapeFor(suite, pkg)
		if err != nil {
			return nil, err
		}
		for _, hd := range decls {
			for _, site := range esc.byFunc[hd.key] {
				if waived(pkg, site) {
					continue
				}
				counts[budgetKey(pkg.PkgPath, budgetFuncName(hd.fn), site.msg)]++
			}
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	notes := carryNotes(keys, prev)
	entries := make([]BudgetEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, BudgetEntry{Site: k, Count: counts[k], Note: notes[k]})
	}
	return entries, nil
}

// waived reports whether a justified //lint:ignore directive naming hotalloc
// covers the site. An in-line waiver replaces a budget entry: budgeting the
// site as well would leave the directive suppressing nothing, which
// staleignore reports.
func waived(pkg *Package, site escapeSite) bool {
	diag := Diagnostic{Analyzer: HotAlloc.Name, Pos: site.pos}
	for _, f := range pkg.Files {
		for _, d := range parseIgnores(pkg, f) {
			if d.justified && d.matches(diag) {
				return true
			}
		}
	}
	return false
}

// carryNotes maps the current keys (sorted) to the notes they keep from
// prev. A key prev has keeps its own. A key prev does not have takes the
// note of a key that vanished from the same function when the two are
// plainly one site under a reworded compiler message (a renamed type, a
// qualified package, a different temporary): the vanished message sharing
// the longest prefix plus suffix with the new one, if that is at least half
// of the shorter message and no other vanished message ties it.
func carryNotes(keys []string, prev []BudgetEntry) map[string]string {
	notes := make(map[string]string, len(prev)) // vanished keys included: they are the candidates
	for _, e := range prev {
		notes[e.Site] = e.Note
	}
	current := make(map[string]bool, len(keys))
	for _, k := range keys {
		current[k] = true
	}
	for _, k := range keys {
		if _, known := notes[k]; known {
			continue
		}
		fn, msg := splitSite(k)
		best, bestScore, tied := "", 0, false
		for _, o := range prev {
			ofn, omsg := splitSite(o.Site)
			if ofn != fn || current[o.Site] || notes[o.Site] == "" {
				continue
			}
			switch score := sharedEnds(msg, omsg); {
			case 2*score < min(len(msg), len(omsg)):
			case score > bestScore:
				best, bestScore, tied = o.Site, score, false
			case score == bestScore:
				tied = true
			}
		}
		if best != "" && !tied {
			notes[k], notes[best] = notes[best], "" // a note has one heir
		}
	}
	return notes
}

// splitSite splits a budget key into "<pkgpath>::<func>" and the compiler's
// message without its constant tail.
func splitSite(key string) (fn, msg string) {
	i := strings.LastIndex(key, "::")
	return key[:max(i, 0)], strings.TrimSuffix(key[i+2:], " escapes to heap")
}

// sharedEnds is the length of the longest common prefix of a and b plus
// that of the longest common suffix of what the prefix leaves.
func sharedEnds(a, b string) int {
	n, p, s := min(len(a), len(b)), 0, 0
	for p < n && a[p] == b[p] {
		p++
	}
	for s < n-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	return p + s
}

// LoadAllocBudget reads the entries of an existing budget file; a missing
// file is an empty budget.
func LoadAllocBudget(path string) ([]BudgetEntry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f budgetFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
	}
	return f.Sites, nil
}

// WriteAllocBudget writes entries as a budget file, creating the .mcevet
// directory as needed. The output is deterministic (sorted keys, stable
// indentation) so `git diff --exit-code` is a drift check.
func WriteAllocBudget(path string, entries []BudgetEntry) error {
	sorted := append([]BudgetEntry{}, entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Site < sorted[j].Site })
	out, err := json.MarshalIndent(budgetFile{Comment: budgetComment, Sites: sorted}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
