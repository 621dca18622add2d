// Package gio reads and writes graphs in the two on-disk formats the paper
// uses: plain whitespace-separated edge lists (the SNAP convention) and the
// distributed triple format of §6.2, where each record is ⟨n1, e, n2⟩ with
// node and edge labels encoded as hashes to speed up loading.
//
// Node labels are arbitrary strings; a LabelMap assigns them dense int32
// identifiers in first-seen order so that the rest of the pipeline works on
// compact IDs.
package gio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"mce/internal/graph"
)

// LabelMap maps external string labels to dense node IDs and back.
type LabelMap struct {
	ids    map[string]int32
	labels []string
}

// NewLabelMap returns an empty label map.
func NewLabelMap() *LabelMap {
	return &LabelMap{ids: make(map[string]int32)}
}

// ID returns the dense identifier for label, allocating one if unseen.
func (m *LabelMap) ID(label string) int32 {
	if id, ok := m.ids[label]; ok {
		return id
	}
	id := int32(len(m.labels))
	m.ids[label] = id
	m.labels = append(m.labels, label)
	return id
}

// id is ID for a label still in the reader's buffer: the lookup does not
// allocate, and only a new label is copied into a string.
func (m *LabelMap) id(label []byte) int32 {
	if id, ok := m.ids[string(label)]; ok {
		return id
	}
	return m.ID(string(label))
}

// Lookup returns the identifier for label without allocating.
func (m *LabelMap) Lookup(label string) (int32, bool) {
	id, ok := m.ids[label]
	return id, ok
}

// Label returns the external label of id.
func (m *LabelMap) Label(id int32) string { return m.labels[id] }

// Len returns the number of distinct labels seen.
func (m *LabelMap) Len() int { return len(m.labels) }

// HashLabel hashes an arbitrary label to a fixed-width token (FNV-1a,
// 64-bit), mirroring the paper's trick of encoding node and edge labels with
// hashes to speed up the distributed loading phase (§6.2).
func HashLabel(label string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * prime64
	}
	return h
}

// ReadEdgeList parses a whitespace-separated edge list: one "u v" pair per
// line, '#' and '%' prefixed lines are comments, fields past the second are
// ignored. Labels may be arbitrary strings; the returned LabelMap records
// the dense relabelling. Self loops and duplicate edges are normalised away
// by the graph builder.
func ReadEdgeList(r io.Reader) (*graph.Graph, *LabelMap, error) {
	return readGraph(r, false)
}

// ReadTriples parses the paper's distributed record format: one triple
// ⟨n1, e, n2⟩ per line, tab- or space-separated, where n1 and n2 are node
// labels and e is an edge label (ignored for the undirected clique problem).
// Hash-encoded labels (decimal uint64 produced by HashLabel) and raw string
// labels are both accepted; each distinct token becomes one node.
func ReadTriples(r io.Reader) (*graph.Graph, *LabelMap, error) {
	return readGraph(r, true)
}

func readGraph(r io.Reader, triples bool) (*graph.Graph, *LabelMap, error) {
	m, b := NewLabelMap(), graph.NewBuilder(0)
	if err := read(r, triples, m, b); err != nil {
		return nil, nil, err
	}
	return b.Build(), m, nil
}

// maxLine caps the bytes of one input line, its newline included.
const maxLine = 16 * 1024 * 1024

// read adds the edges of an edge-list stream, or a triple stream if triples
// is set, to m and b, one line at a time from the scanner's buffer. A line
// with no fields, or whose first field starts with '#' or '%', is a blank
// or comment line. An edge list takes the first two fields of a line with
// at least two, a triple file the first and third of a line with exactly
// three.
func read(r io.Reader, triples bool, m *LabelMap, b *graph.Builder) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var f [3][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		n := fields(sc.Bytes(), &f)
		if n == 0 || f[0][0] == '#' || f[0][0] == '%' {
			continue
		}
		var u, v int32
		switch {
		case triples && n != 3:
			return fmt.Errorf("gio: line %d: triple format wants 3 fields, got %d", lineNo, n)
		case triples:
			u, v = m.id(f[0]), m.id(f[2])
		case n < 2: // one field: the trimmed line is that field
			return fmt.Errorf("gio: line %d: want at least 2 fields, got %q", lineNo, f[0])
		default:
			u, v = m.id(f[0]), m.id(f[1])
		}
		b.Grow(m.Len())
		b.AddEdge(u, v)
	}
	switch err := sc.Err(); {
	case err == bufio.ErrTooLong:
		return fmt.Errorf("gio: line %d: longer than %d bytes", lineNo, maxLine)
	case err != nil && triples:
		return fmt.Errorf("gio: reading triples: %w", err)
	case err != nil:
		return fmt.Errorf("gio: reading edge list: %w", err)
	}
	return nil
}

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields stores the first three fields of line in f and returns how many
// fields line has, splitting as strings.Fields does. An ASCII line is split
// in place on asciiSpace; a line holding any byte ≥ 0x80 goes through
// bytes.Fields, which then also splits on the Unicode spaces (U+0085,
// U+00A0, …) and treats invalid UTF-8 as strings.Fields does.
func fields(line []byte, f *[3][]byte) int {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			all := bytes.Fields(line)
			copy(f[:], all)
			return len(all)
		}
	}
	n := 0
	for i := 0; i < len(line); {
		if asciiSpace[line[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

// WriteEdgeList writes g as "u v" lines using dense IDs as labels, one per
// edge u < v in ascending (u, v) order.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			line = strconv.AppendInt(line[:0], int64(u), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(v), 10)
			line = append(line, '\n')
			bw.Write(line) // a write error sticks: Flush returns it
		}
	}
	return bw.Flush()
}

// WriteTriples writes g in the triple format with hash-encoded labels: each
// edge becomes "hash(u) e<i> hash(v)". labelOf supplies the external label of
// a node; pass nil to use the decimal dense ID.
func WriteTriples(w io.Writer, g *graph.Graph, labelOf func(int32) string) error {
	bw := bufio.NewWriter(w)
	writeTriples([]*bufio.Writer{bw}, g, labelOf)
	return bw.Flush()
}

// writeTriples writes edge i of g — the edges u < v in ascending (u, v)
// order — as "hash(u) e<i> hash(v)" to ws[i%len(ws)], labelOf as in
// WriteTriples. A write error sticks to its writer, for its Flush to report.
func writeTriples(ws []*bufio.Writer, g *graph.Graph, labelOf func(int32) string) {
	if labelOf == nil {
		labelOf = func(v int32) string { return strconv.Itoa(int(v)) }
	}
	hash := make([]uint64, g.N())
	for v := range hash {
		hash[v] = HashLabel(labelOf(int32(v)))
	}
	var line []byte
	i := 0
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			line = strconv.AppendUint(line[:0], hash[u], 10)
			line = append(line, " e"...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, ' ')
			line = strconv.AppendUint(line, hash[v], 10)
			line = append(line, '\n')
			ws[i%len(ws)].Write(line)
			i++
		}
	}
}

// LoadFile reads a graph from path, choosing the parser by extension:
// ".triples" selects ReadTriples, anything else ReadEdgeList.
func LoadFile(path string) (*graph.Graph, *LabelMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("gio: %w", err)
	}
	defer f.Close()
	return readGraph(f, strings.HasSuffix(path, ".triples"))
}

// SaveFile writes g to path in the format chosen by extension, mirroring
// LoadFile.
func SaveFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gio: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".triples") {
		err = WriteTriples(f, g, nil)
	} else {
		err = WriteEdgeList(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
