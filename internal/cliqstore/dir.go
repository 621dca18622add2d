package cliqstore

// Segment-directory iteration: a checkpointed run (internal/runlog) leaves
// one sealed segment per completed block under <checkpoint>/segments/. The
// functions here give downstream consumers — the cliqdb index compiler
// above all — a deterministic, verified view of that directory: segments
// are visited in sorted filename order and every one must verify against
// its trailer, so a torn or bit-flipped segment surfaces as an error
// instead of silently shrinking the clique set.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mce/internal/durable"
)

// SegmentExt is the filename extension of sealed clique segments.
const SegmentExt = ".cliq"

// FamilySegment is the filename of the canonical whole-family segment
// WriteDir produces.
const FamilySegment = "family" + SegmentExt

// WriteDir writes cliques as a canonical serving segment directory at dir
// (created if missing): one sealed segment holding the entire family,
// landed by durable.AtomicReplace so a crash never leaves a torn segment
// under the live name, with any stale segments from a previous family
// removed after the rename. This is the directory to back index
// self-healing with (mced -segments): unlike a run checkpoint's directory
// — which holds per-level resume state in level-local vertex IDs, before
// the Lemma 1 filter — it holds the final clique family in the graph's
// own IDs.
func WriteDir(dir string, cliques [][]int32) error {
	return writeDir(durable.OSFS{}, dir, cliques)
}

// writeDir is WriteDir over an injectable filesystem.
func writeDir(fsys durable.FS, dir string, cliques [][]int32) error {
	fail := func(err error) error { return fmt.Errorf("cliqstore: write segment dir: %w", err) }
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	err := durable.AtomicReplace(fsys, filepath.Join(dir, FamilySegment), func(w io.Writer) error {
		_, _, err := WriteAll(w, cliques)
		return err
	})
	if err != nil {
		return fail(err)
	}
	// The family segment is now live; stale siblings would feed extra
	// cliques into the next compile.
	files, err := SegmentFiles(dir)
	if err != nil {
		return err
	}
	for _, p := range files {
		if filepath.Base(p) != FamilySegment {
			if err := fsys.Remove(p); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}

// SegmentFiles lists the clique segments of dir in sorted filename order —
// the canonical iteration order for everything built from a segment
// directory. Temp files (in-flight atomic writes) and non-segment files are
// ignored. A missing directory is an error; an existing directory with no
// segments returns an empty list.
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cliqstore: segment dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), SegmentExt) {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// WalkDir streams every clique of every segment in dir, in sorted filename
// order, calling fn per clique (the slice is reused; copy to retain). Every
// segment is verified against its trailer as it drains: a truncated or
// corrupt segment fails the walk with ErrTruncated / ErrCorrupt (wrapped,
// naming the file) rather than yielding a partial clique set. Returns the
// number of cliques visited.
func WalkDir(dir string, fn func(clique []int32) error) (int64, error) {
	files, err := SegmentFiles(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, path := range files {
		n, err := walkSegment(path, fn)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// walkSegment drains one segment file through fn.
func walkSegment(path string, fn func(clique []int32) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("cliqstore: segment: %w", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return 0, fmt.Errorf("cliqstore: segment %s: %w", filepath.Base(path), err)
	}
	if err := r.ForEach(fn); err != nil {
		return r.Count(), fmt.Errorf("cliqstore: segment %s: %w", filepath.Base(path), err)
	}
	return r.Count(), nil
}

// IsNotExist reports whether err means the segment directory itself is
// missing, as opposed to a directory whose contents failed to read or
// verify.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
