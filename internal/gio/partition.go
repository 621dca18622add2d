package gio

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mce/internal/graph"
)

// WritePartitioned splits g's edge set across parts files named
// part-<i>.triples inside dir, mirroring the paper's distributed input
// layout (§6.2: each machine holds files of ⟨n1, e, n2⟩ triples with
// hash-encoded labels). Edges are distributed round-robin so partitions are
// balanced; dir is created if missing. Node labels are the decimal IDs,
// hash-encoded as WriteTriples does, so partition files and whole files
// share one format; the edge label records the global edge index.
func WritePartitioned(dir string, g *graph.Graph, parts int) error {
	if parts < 1 {
		return fmt.Errorf("gio: parts = %d, want ≥ 1", parts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gio: %w", err)
	}
	files := make([]*os.File, parts)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	ws := make([]*bufio.Writer, parts)
	for i := range files {
		f, err := os.Create(partPath(dir, i))
		if err != nil {
			return fmt.Errorf("gio: %w", err)
		}
		files[i], ws[i] = f, bufio.NewWriter(f)
	}
	writeTriples(ws, g, nil)
	for i, f := range files {
		if err := ws[i].Flush(); err != nil {
			return fmt.Errorf("gio: writing partition %d: %w", i, err)
		}
		files[i] = nil
		if err := f.Close(); err != nil {
			return fmt.Errorf("gio: %w", err)
		}
	}
	return nil
}

// ReadPartitioned loads every part-*.triples file in dir, in name order,
// into one graph: the same graph and LabelMap as ReadTriples gives for the
// files concatenated in that order.
func ReadPartitioned(dir string) (*graph.Graph, *LabelMap, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "part-*.triples"))
	if err != nil {
		return nil, nil, fmt.Errorf("gio: %w", err)
	}
	if len(matches) == 0 {
		return nil, nil, fmt.Errorf("gio: no part-*.triples files in %s", dir)
	}
	sort.Strings(matches)

	m, b := NewLabelMap(), graph.NewBuilder(0)
	for _, path := range matches {
		if err := readPart(path, m, b); err != nil {
			return nil, nil, fmt.Errorf("gio: partition %s: %w", path, err)
		}
	}
	return b.Build(), m, nil
}

func readPart(path string, m *LabelMap, b *graph.Builder) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f, true, m, b)
}

func partPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%04d.triples", i))
}
