package cliqdb

// The offline compiler: cliqstore segments (or an in-memory clique family)
// in, one verified index file out. The compile is deterministic — cliques
// are sorted into canonical order and duplicates dropped, so the same
// segment set always produces byte-identical output — and atomic: the
// index is assembled in memory and landed by durable.AtomicReplace. A crash
// at any point leaves either the previous index or the new one, never a
// torn file; the SIGKILL chaos suite (chaos_compile_test.go) kills compiles
// at randomized points to hold the compiler to that.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"

	"mce/internal/cliqstore"
	"mce/internal/durable"
	"mce/internal/runlog"
)

// compileThrottle, when non-nil, is called at encode and write batch
// boundaries. It exists for the chaos suite: the re-execed child installs a
// sleep here so the parent's SIGKILL reliably lands mid-compile. Production
// code never sets it.
var compileThrottle func()

// throttleEvery is how many cliques (encode) or bytes (write) pass between
// compileThrottle calls.
const (
	throttleCliques = 512
	writeChunk      = 64 << 10
)

// BuildStats describes one compiled index.
type BuildStats struct {
	// Cliques is the number of cliques in the index after deduplication.
	Cliques int
	// Vertices is the vertex ID space (max member + 1).
	Vertices int32
	// Bytes is the size of the index file.
	Bytes int64
	// Digest is the content digest sealed into the header.
	Digest uint32
}

// CompileSegments compiles every cliqstore segment under segDir into an
// index at path. Each segment must verify against its own trailer; a
// truncated or corrupt segment fails the compile — the segments are the
// authoritative source and a bad one must be re-derived by re-running the
// enumeration, not papered over.
//
// The segments must hold the run's final clique family in the graph's own
// vertex IDs — the directory mcefind -index-out writes beside the index.
// A run checkpoint's directory is NOT that: what it holds is resume state
// (level-local IDs, pre-Lemma-1-filter), and compiling any of it would serve
// wrong cliques under wrong labels, so it — and anything inside it — is
// refused.
func CompileSegments(segDir, path string) (*BuildStats, error) {
	if err := CheckServingSegments(segDir); err != nil {
		return nil, err
	}
	var cliques [][]int32
	if _, err := cliqstore.WalkDir(segDir, func(c []int32) error {
		cp := make([]int32, len(c))
		copy(cp, c)
		cliques = append(cliques, cp)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("cliqdb: compile: %w", err)
	}
	return Build(cliques, path)
}

// CheckServingSegments rejects segment directories that cannot back a
// serving index — today, a run checkpoint's directory or one inside it (see
// CompileSegments). mced runs this at startup so a misconfigured -segments
// fails the daemon immediately instead of at the first self-heal.
func CheckServingSegments(segDir string) error {
	if runlog.InsideCheckpoint(segDir) {
		return fmt.Errorf("cliqdb: %s is, or is inside, a run checkpoint's directory, which holds per-level resume state rather than the final clique family; point at the <index>.segments directory mcefind -index-out writes", segDir)
	}
	return nil
}

// Build compiles an in-memory clique family into an index at path. The
// input is not mutated: cliques are copied into canonical order
// (lexicographic over ascending members) with exact duplicates removed.
// Every clique must have strictly ascending, non-negative members.
func Build(cliques [][]int32, path string) (*BuildStats, error) {
	return build(durable.OSFS{}, cliques, path)
}

// build is Build over an injectable filesystem. The image is written in
// bounded chunks (with the chaos throttle between them) so a kill mid-write
// is exercised against a partially written temp file, never a partially
// written live index.
func build(fs durable.FS, cliques [][]int32, path string) (*BuildStats, error) {
	image, st, err := encode(cliques)
	if err != nil {
		return nil, err
	}
	err = durable.AtomicReplace(fs, path, func(w io.Writer) error {
		for rest := image; len(rest) > 0; {
			chunk := rest[:min(len(rest), writeChunk)]
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			rest = rest[len(chunk):]
			if compileThrottle != nil {
				compileThrottle()
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cliqdb: write index: %w", err)
	}
	st.Bytes = int64(len(image))
	return st, nil
}

// encode assembles the full index image in memory.
func encode(cliques [][]int32) ([]byte, *BuildStats, error) {
	ordered := make([][]int32, len(cliques))
	copy(ordered, cliques)
	sort.Slice(ordered, func(i, j int) bool { return compareCliques(ordered[i], ordered[j]) < 0 })

	var nVerts int32
	kept := make([][]int32, 0, len(ordered))
	for _, c := range ordered {
		if len(c) == 0 {
			return nil, nil, fmt.Errorf("cliqdb: empty clique")
		}
		// The last member is the largest: the encoder below refuses any
		// clique that does not ascend.
		if c[len(c)-1] >= nVerts {
			nVerts = c[len(c)-1] + 1
		}
		if len(kept) > 0 && compareCliques(kept[len(kept)-1], c) == 0 {
			continue // exact duplicate (sorted input makes duplicates adjacent)
		}
		kept = append(kept, c)
	}
	n := len(kept)
	if uint64(n) > 1<<31 {
		return nil, nil, fmt.Errorf("cliqdb: %d cliques exceeds the format limit of 2^31", n)
	}

	// CLIQ + COFF + per-vertex counts + content digest, one pass.
	var (
		cliq    []byte
		coff    = make([]byte, 0, (n+1)*4)
		start   = make([]int, int(nVerts)+1) // start[v+1] counts v's cliques, then prefix-summed
		digest  cliqstore.Digester
		sizeIdx = make([]uint32, n)
		err     error
	)
	putU32 := binary.LittleEndian.AppendUint32
	for id, c := range kept {
		coff = putU32(coff, uint32(len(cliq)))
		if cliq, err = durable.AppendAscending(cliq, c); err != nil {
			return nil, nil, fmt.Errorf("cliqdb: clique %v: %w", c, err)
		}
		for _, v := range c {
			start[v+1]++
		}
		digest.Add(c)
		sizeIdx[id] = uint32(id)
		if compileThrottle != nil && id%throttleCliques == throttleCliques-1 {
			compileThrottle()
		}
	}
	// COFF/VOFF offsets are uint32; a section past 4 GiB would wrap them
	// silently and emit an index that can never verify, bricking
	// OpenOrRebuild's self-healing. Fail the compile loudly instead.
	if len(cliq) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cliqdb: CLIQ section is %d bytes, past the 4 GiB uint32 offset limit", len(cliq))
	}
	coff = putU32(coff, uint32(len(cliq)))

	// VPST + VOFF: invert the cliques into one array of clique IDs grouped
	// by vertex. Walking cliques in ID order fills every vertex's group
	// ascending, so each group is encoded as one run (its count prefix lets
	// lookups preallocate).
	for v := range start[1:] {
		start[v+1] += start[v]
	}
	ids := make([]int32, start[nVerts])
	fill := slices.Clone(start[:nVerts])
	for id, c := range kept {
		for _, v := range c {
			ids[fill[v]] = int32(id)
			fill[v]++
		}
	}
	var vpst []byte
	voff := make([]byte, 0, (int(nVerts)+1)*4)
	for v := int32(0); v < nVerts; v++ {
		voff = putU32(voff, uint32(len(vpst)))
		if vpst, err = durable.AppendAscending(vpst, ids[start[v]:start[v+1]]); err != nil {
			return nil, nil, fmt.Errorf("cliqdb: posting of vertex %d: %w", v, err)
		}
	}
	if len(vpst) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cliqdb: VPST section is %d bytes, past the 4 GiB uint32 offset limit", len(vpst))
	}
	voff = putU32(voff, uint32(len(vpst)))

	// SIZE: clique IDs by (size desc, id asc).
	sort.Slice(sizeIdx, func(i, j int) bool {
		a, b := sizeIdx[i], sizeIdx[j]
		if len(kept[a]) != len(kept[b]) {
			return len(kept[a]) > len(kept[b])
		}
		return a < b
	})
	size := make([]byte, 0, n*4)
	for _, id := range sizeIdx {
		size = putU32(size, id)
	}

	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint32(meta[0:], formatVersion)
	binary.LittleEndian.PutUint32(meta[4:], uint32(nVerts))
	binary.LittleEndian.PutUint64(meta[8:], uint64(n))
	binary.LittleEndian.PutUint32(meta[16:], digest.Sum32())

	// Frame the sections (tag, length, payload, CRC), listing each in the
	// footer's table; then the footer, framed alike, then the trailer.
	putU64 := binary.LittleEndian.AppendUint64
	image := append([]byte(nil), headMagic[:]...)
	frame := func(tag [4]byte, payload []byte) {
		image = putU64(append(image, tag[:]...), uint64(len(payload)))
		image = putU32(append(image, payload...), crc32.ChecksumIEEE(payload))
	}
	sections := []struct {
		tag     [4]byte
		payload []byte
	}{{tagMeta, meta}, {tagCliq, cliq}, {tagCoff, coff}, {tagVpst, vpst}, {tagVoff, voff}, {tagSize, size}}
	foot := putU32(nil, uint32(len(sections)))
	for _, sec := range sections {
		foot = putU64(append(foot, sec.tag[:]...), uint64(len(image)))
		foot = putU32(putU64(foot, uint64(len(sec.payload))), crc32.ChecksumIEEE(sec.payload))
		frame(sec.tag, sec.payload)
	}
	footOff := uint64(len(image))
	frame(tagFtr, foot)
	image = append(putU64(image, footOff), tailMagic[:]...)

	return image, &BuildStats{Cliques: n, Vertices: nVerts, Digest: digest.Sum32()}, nil
}
