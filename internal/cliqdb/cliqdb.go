// Package cliqdb is the serving-side clique database: a compact, checksummed
// on-disk index compiled offline from cliqstore segments holding a run's
// final clique family (the serving segment directory mcefind -index-out
// writes — a run checkpoint's own level logs are level-local resume state
// and its directory is refused), and opened read-only by the query daemon (cmd/mced). The split mirrors the create-db / search-db shape the ROADMAP
// names: enumeration is the expensive offline build, queries are cheap
// online lookups over a vertex → containing-cliques inverted index plus a
// size-ordered index for top-k and community percolation.
//
// Robustness is the design center, not an afterthought:
//
//   - The compiler writes temp + fsync + rename, so a crash mid-compile can
//     never leave a torn file under the live name — the live index is either
//     the previous complete index or the new complete index.
//   - Every section is length-prefixed and CRC-32 framed, the footer that
//     locates the sections is itself CRC-framed, and the file ends in a
//     trailer magic; a bit flip or truncation anywhere is detected at Open.
//   - Open verifies structure, not just bytes: every clique must decode
//     exactly within its offset span in canonical order, every posting list
//     must agree with the cliques it indexes (checked by streaming cursors,
//     O(index size)), the size index must be the exact (size desc, id asc)
//     permutation, and the recomputed content digest must match the header.
//     A DB that opens cannot serve wrong data from a corrupt file.
//   - The serving segments stay authoritative: OpenOrRebuild answers any
//     detected corruption (or a missing index) with an automatic recompile
//     from the segment directory, and the compile is deterministic — same
//     segments, byte-identical index — so self-healing is idempotent.
//
// # On-disk format (version 1)
//
//	"MCEDB1\r\n"                          8-byte head magic
//	section*                              tag[4] len[8 LE] payload crc32[4 LE]
//	footer section (tag "FTR\x00")        payload: count[4 LE] then per
//	                                      section tag[4] off[8] len[8] crc[4]
//	footer offset [8 LE]  "MCEDBEND"      16-byte trailer
//
// Sections, in file order:
//
//	META  version[4] nverts[4] ncliques[8] digest[4]
//	CLIQ  per clique: its members as one ascending run (internal/durable,
//	      the cliqstore clique encoding), cliques in canonical order
//	      (lexicographic over ascending members, exact duplicates removed)
//	COFF  (ncliques+1) uint32 LE offsets into CLIQ
//	VPST  per vertex: the IDs of its cliques as one ascending run
//	VOFF  (nverts+1) uint32 LE offsets into VPST
//	SIZE  ncliques uint32 LE clique IDs ordered by (size desc, id asc)
//
// The digest in META is cliqstore.Digest over the canonical clique order,
// tying the index to the exactly-once content argument of DESIGN.md §12:
// a resumed run reproduces the same clique family, so it compiles to the
// same digest and the same bytes.
package cliqdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"mce/internal/cliqstore"
	"mce/internal/durable"
)

// File-format constants.
var (
	headMagic = [8]byte{'M', 'C', 'E', 'D', 'B', '1', '\r', '\n'}
	tailMagic = [8]byte{'M', 'C', 'E', 'D', 'B', 'E', 'N', 'D'}
)

// Section tags, in the order sections are written.
var (
	tagMeta = [4]byte{'M', 'E', 'T', 'A'}
	tagCliq = [4]byte{'C', 'L', 'I', 'Q'}
	tagCoff = [4]byte{'C', 'O', 'F', 'F'}
	tagVpst = [4]byte{'V', 'P', 'S', 'T'}
	tagVoff = [4]byte{'V', 'O', 'F', 'F'}
	tagSize = [4]byte{'S', 'I', 'Z', 'E'}
	tagFtr  = [4]byte{'F', 'T', 'R', 0}
)

const (
	formatVersion = 1
	metaLen       = 4 + 4 + 8 + 4
	frameOverhead = 4 + 8 + 4 // tag + length + crc
	trailerLen    = 8 + 8     // footer offset + tail magic
)

var (
	// ErrCorrupt reports an index whose bytes or structure fail
	// verification: a CRC mismatch, an impossible offset table, a posting
	// that disagrees with its cliques, a digest mismatch. The file cannot
	// be trusted; rebuild it from the segments.
	ErrCorrupt = errors.New("cliqdb: corrupt index")
	// ErrTruncated reports an index file that ends before its trailer —
	// the torn-write shape. Rebuild it from the segments.
	ErrTruncated = errors.New("cliqdb: truncated index")
)

// Rebuildable reports whether err is an open failure that a recompile from
// the authoritative segments fixes: a missing, truncated or corrupt index.
// Permission errors and I/O failures are not rebuildable — retrying the
// same bytes cannot help.
func Rebuildable(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || errors.Is(err, os.ErrNotExist)
}

// DB is an opened, fully verified clique database. All methods are
// read-only and safe for concurrent use; the hot lookup paths decode
// directly from the section bytes and append into caller-owned slices, so
// steady-state serving does not allocate.
type DB struct {
	nVerts   int32
	nCliques int
	digest   uint32

	cliq  []byte   // CLIQ section
	coff  []byte   // COFF section (uint32 LE array)
	vpst  []byte   // VPST section
	voff  []byte   // VOFF section (uint32 LE array)
	size  []byte   // SIZE section (uint32 LE array)
	sizes []uint32 // per-clique member count, decoded once at open
}

// NumVertices returns the vertex ID space of the index: valid vertex IDs
// are [0, NumVertices).
func (db *DB) NumVertices() int32 { return db.nVerts }

// NumCliques returns how many maximal cliques the index holds.
func (db *DB) NumCliques() int { return db.nCliques }

// Digest returns the content digest (cliqstore.Digest over the canonical
// clique order) sealed into the index header.
func (db *DB) Digest() uint32 { return db.digest }

// u32 reads the i-th uint32 of a packed little-endian array.
//
//mce:hotpath offset-table access on every lookup
func u32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i*4 : i*4+4])
}

// CliqueSize returns the member count of clique id. It panics on an
// out-of-range id — IDs come from this DB's own indexes.
//
//mce:hotpath size lookup on every top-k and community query
func (db *DB) CliqueSize(id uint32) int { return int(db.sizes[id]) }

// AppendClique decodes clique id's members into dst and returns the
// extended slice. Members are ascending. It panics on an out-of-range id.
//
//mce:hotpath clique materialisation on every query response
func (db *DB) AppendClique(dst []int32, id uint32) []int32 {
	return durable.AppendRun(dst, db.cliq[u32(db.coff, int(id)):u32(db.coff, int(id)+1)])
}

// posting positions a cursor at vertex v's posting list (ascending clique
// IDs, which fit int32: an index holds at most 2^31 cliques).
//
//mce:hotpath posting-list access on every vertex query
func (db *DB) posting(v int32) durable.Run {
	return durable.OpenRun(db.vpst[u32(db.voff, int(v)):u32(db.voff, int(v)+1)])
}

// CliqueCount returns how many cliques contain vertex v, without decoding
// the posting list. Out-of-range vertices have zero cliques.
//
//mce:hotpath per-vertex cardinality on every query
func (db *DB) CliqueCount(v int32) int {
	if v < 0 || v >= db.nVerts {
		return 0
	}
	cur := db.posting(v)
	return cur.Len()
}

// AppendCliquesOf appends the IDs of every clique containing v to dst
// (ascending) and returns the extended slice. Vertices outside the index's
// ID space simply have no cliques.
//
//mce:hotpath the cliques-of(v) lookup
func (db *DB) AppendCliquesOf(dst []uint32, v int32) []uint32 {
	if v < 0 || v >= db.nVerts {
		return dst
	}
	cur := db.posting(v)
	if n := cur.Len(); cap(dst)-len(dst) < n {
		grown := make([]uint32, len(dst), max(2*cap(dst), len(dst)+n))
		copy(grown, dst)
		dst = grown
	}
	for {
		id, ok := cur.Next()
		if !ok {
			return dst
		}
		dst = append(dst, uint32(id))
	}
}

// AppendCommonCliques appends the IDs of every clique containing both u and
// v to dst (ascending) and returns the extended slice — a merge
// intersection of two posting lists with no intermediate materialisation.
//
//mce:hotpath the common-cliques(u,v) lookup
func (db *DB) AppendCommonCliques(dst []uint32, u, v int32) []uint32 {
	if u < 0 || u >= db.nVerts || v < 0 || v >= db.nVerts {
		return dst
	}
	a, b := db.posting(u), db.posting(v)
	x, okA := a.Next()
	y, okB := b.Next()
	for okA && okB {
		switch {
		case x == y:
			dst = append(dst, uint32(x))
			x, okA = a.Next()
			y, okB = b.Next()
		case x < y:
			x, okA = a.Next()
		default:
			y, okB = b.Next()
		}
	}
	return dst
}

// AppendTopK appends the IDs of the k largest cliques (ties by ascending
// ID) to dst and returns the extended slice. k larger than the index
// returns every clique.
//
//mce:hotpath the top-k lookup
func (db *DB) AppendTopK(dst []uint32, k int) []uint32 {
	if k > db.nCliques {
		k = db.nCliques
	}
	for i := 0; i < k; i++ {
		dst = append(dst, u32(db.size, i))
	}
	return dst
}

// MinSizeCount returns how many cliques have at least k members — the
// length of the size-index prefix AppendMinSize yields.
//
//mce:hotpath community-query sizing
func (db *DB) MinSizeCount(k int) int {
	return sort.Search(db.nCliques, func(i int) bool {
		return int(db.sizes[u32(db.size, i)]) < k
	})
}

// AppendMinSize appends the IDs of every clique with at least k members
// (largest first, ties by ascending ID) to dst — the candidate family for
// k-clique community percolation.
//
//mce:hotpath the community-query candidate scan
func (db *DB) AppendMinSize(dst []uint32, k int) []uint32 {
	n := db.MinSizeCount(k)
	for i := 0; i < n; i++ {
		dst = append(dst, u32(db.size, i))
	}
	return dst
}

// Cliques materialises every clique in canonical order, one slice each. It
// is the bulk export for tests and benchmark answer checks; queries should
// use AppendClique, and community percolation AppendMinSize.
func (db *DB) Cliques() [][]int32 {
	out := make([][]int32, db.nCliques)
	for id := 0; id < db.nCliques; id++ {
		out[id] = db.AppendClique(make([]int32, 0, db.sizes[id]), uint32(id))
	}
	return out
}

// Open reads and fully verifies the index at path. The returned DB holds
// the whole index in memory (sections are kept as their raw byte ranges;
// lookups decode on the fly). Open fails with ErrTruncated / ErrCorrupt
// (wrapped, with detail) when the file does not verify — see OpenOrRebuild
// for the self-healing variant.
func Open(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cliqdb: %w", err)
	}
	db, err := openBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return db, nil
}

// OpenOrRebuild opens the index at path, answering a missing, truncated or
// corrupt file with an automatic recompile from the authoritative segment
// directory followed by a second Open. rebuilt reports whether the index
// was recompiled. An empty segDir disables self-healing and makes
// OpenOrRebuild equivalent to Open.
func OpenOrRebuild(path, segDir string) (db *DB, rebuilt bool, err error) {
	db, err = Open(path)
	if err == nil || segDir == "" || !Rebuildable(err) {
		return db, false, err
	}
	if _, cerr := CompileSegments(segDir, path); cerr != nil {
		return nil, false, fmt.Errorf("cliqdb: self-healing rebuild after %v: %w", err, cerr)
	}
	db, err = Open(path)
	if err != nil {
		return nil, true, fmt.Errorf("cliqdb: index still unreadable after rebuild: %w", err)
	}
	return db, true, nil
}

// section is one parsed footer entry.
type section struct {
	tag [4]byte
	off uint64
	ln  uint64
	crc uint32
}

// openBytes parses and verifies a whole index image. Every failure wraps
// ErrTruncated (file ends early) or ErrCorrupt (bytes present but wrong),
// so callers can decide rebuildability without string matching.
func openBytes(data []byte) (*DB, error) {
	if len(data) < len(headMagic)+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the fixed framing", ErrTruncated, len(data))
	}
	if [8]byte(data[:8]) != headMagic {
		return nil, fmt.Errorf("%w: bad head magic", ErrCorrupt)
	}
	if [8]byte(data[len(data)-8:]) != tailMagic {
		return nil, fmt.Errorf("%w: missing trailer magic", ErrTruncated)
	}
	// All bounds checks below are subtraction-form: footOff, s.off and s.ln
	// come straight from untrusted bytes, so addition-form checks like
	// off+overhead > len can wrap at uint64 extremes and admit offsets that
	// later panic slicing. The min-length check above guarantees
	// len(data) >= len(headMagic)+trailerLen, so `limit` cannot underflow.
	footOff := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	limit := uint64(len(data) - trailerLen)
	if footOff < uint64(len(headMagic)) || footOff > limit || limit-footOff < frameOverhead {
		return nil, fmt.Errorf("%w: footer offset %d outside file", ErrCorrupt, footOff)
	}
	footPayload, err := frame(data, footOff, tagFtr)
	if err != nil {
		return nil, err
	}
	secs, err := parseFooter(footPayload)
	if err != nil {
		return nil, err
	}
	// Verify and collect each section the footer promises.
	want := [][4]byte{tagMeta, tagCliq, tagCoff, tagVpst, tagVoff, tagSize}
	if len(secs) != len(want) {
		return nil, fmt.Errorf("%w: footer lists %d sections, want %d", ErrCorrupt, len(secs), len(want))
	}
	payloads := make([][]byte, len(secs))
	for i, s := range secs {
		if s.tag != want[i] {
			return nil, fmt.Errorf("%w: section %d is %q, want %q", ErrCorrupt, i, s.tag[:], want[i][:])
		}
		if total := uint64(len(data)); s.off > total || total-s.off < frameOverhead || s.ln > total-s.off-frameOverhead {
			return nil, fmt.Errorf("%w: section %q overruns file", ErrCorrupt, s.tag[:])
		}
		p, err := frame(data, s.off, s.tag)
		if err != nil {
			return nil, err
		}
		if uint64(len(p)) != s.ln || crc32.ChecksumIEEE(p) != s.crc {
			return nil, fmt.Errorf("%w: section %q disagrees with footer", ErrCorrupt, s.tag[:])
		}
		payloads[i] = p
	}
	return verify(payloads)
}

// frame parses one tag/length/payload/CRC frame at off and returns the
// payload after checking tag and checksum.
func frame(data []byte, off uint64, tag [4]byte) ([]byte, error) {
	// Subtraction-form bounds checks: off and ln are untrusted, and
	// addition-form checks wrap at uint64 extremes (see openBytes).
	total := uint64(len(data))
	if off > total || total-off < 12 {
		return nil, fmt.Errorf("%w: frame header at %d overruns file", ErrTruncated, off)
	}
	if [4]byte(data[off:off+4]) != tag {
		return nil, fmt.Errorf("%w: expected section %q at offset %d", ErrCorrupt, tag[:], off)
	}
	ln := binary.LittleEndian.Uint64(data[off+4 : off+12])
	avail := total - off - 12
	if ln > avail || avail-ln < 4 {
		return nil, fmt.Errorf("%w: section %q payload overruns file", ErrTruncated, tag[:])
	}
	end := off + 12 + ln
	payload := data[off+12 : end]
	sum := binary.LittleEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: section %q CRC mismatch", ErrCorrupt, tag[:])
	}
	return payload, nil
}

// parseFooter decodes the footer payload into its section table.
func parseFooter(p []byte) ([]section, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: footer too short", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	const entryLen = 4 + 8 + 8 + 4
	if uint64(len(p)) != uint64(count)*entryLen {
		return nil, fmt.Errorf("%w: footer claims %d sections in %d bytes", ErrCorrupt, count, len(p))
	}
	secs := make([]section, count)
	for i := range secs {
		e := p[i*entryLen:]
		copy(secs[i].tag[:], e[:4])
		secs[i].off = binary.LittleEndian.Uint64(e[4:12])
		secs[i].ln = binary.LittleEndian.Uint64(e[12:20])
		secs[i].crc = binary.LittleEndian.Uint32(e[20:24])
	}
	return secs, nil
}

// exactRun decodes span as one canonical ascending run that fills it: the
// shape of every clique and every posting list. Canonical bytes are what
// make a verified index the one encoding of its content — the property
// self-healing rebuilds rely on and FuzzIndexOpen pins.
func exactRun(dst []int32, span []byte, bound int64) ([]int32, error) {
	run, rest, err := durable.DecodeAscending(dst, span, bound)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d undecoded bytes left in its span", len(rest))
	}
	return run, err
}

// verify cross-checks the decoded sections against each other and builds
// the DB. After it succeeds, every lookup is total: offsets are monotonic
// and in range, every clique and posting decodes exactly, postings agree
// with cliques, the size index is the exact expected permutation, and the
// content digest matches the header.
func verify(payloads [][]byte) (*DB, error) {
	meta, cliq, coff, vpst, voff, size := payloads[0], payloads[1], payloads[2], payloads[3], payloads[4], payloads[5]
	if len(meta) != metaLen {
		return nil, fmt.Errorf("%w: META is %d bytes, want %d", ErrCorrupt, len(meta), metaLen)
	}
	if v := binary.LittleEndian.Uint32(meta); v != formatVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrCorrupt, v, formatVersion)
	}
	nVerts := int64(binary.LittleEndian.Uint32(meta[4:]))
	nCliques := binary.LittleEndian.Uint64(meta[8:])
	digest := binary.LittleEndian.Uint32(meta[16:])
	if nVerts > 1<<31-1 || nCliques > 1<<31 {
		return nil, fmt.Errorf("%w: implausible counts (%d vertices, %d cliques)", ErrCorrupt, nVerts, nCliques)
	}
	if uint64(len(coff)) != (nCliques+1)*4 {
		return nil, fmt.Errorf("%w: COFF holds %d bytes for %d cliques", ErrCorrupt, len(coff), nCliques)
	}
	if int64(len(voff)) != (nVerts+1)*4 {
		return nil, fmt.Errorf("%w: VOFF holds %d bytes for %d vertices", ErrCorrupt, len(voff), nVerts)
	}
	if uint64(len(size)) != nCliques*4 {
		return nil, fmt.Errorf("%w: SIZE holds %d bytes for %d cliques", ErrCorrupt, len(size), nCliques)
	}
	db := &DB{
		nVerts:   int32(nVerts),
		nCliques: int(nCliques),
		digest:   digest,
		cliq:     cliq,
		coff:     coff,
		vpst:     vpst,
		voff:     voff,
		size:     size,
		sizes:    make([]uint32, nCliques),
	}

	// Pass 1 — cliques: each must be exactly one canonical run within its
	// span (durable.DecodeAscending: minimal varints, strictly ascending,
	// inside the vertex space), spans contiguous and exhaustive, canonical
	// (lexicographic, duplicate-free) global order, and the whole family
	// must hash to the header digest. Per-vertex posting counts are
	// accumulated for pass 2.
	var content cliqstore.Digester
	counts := make([]uint32, nVerts)
	prevClique := []int32(nil)
	scratch := make([]int32, 0, 64)
	for id := uint64(0); id < nCliques; id++ {
		lo, hi := u32(coff, int(id)), u32(coff, int(id)+1)
		if lo > hi || uint64(hi) > uint64(len(cliq)) {
			return nil, fmt.Errorf("%w: clique %d has offset span [%d,%d)", ErrCorrupt, id, lo, hi)
		}
		clique, err := exactRun(scratch[:0], cliq[lo:hi], nVerts)
		if err == nil && len(clique) == 0 {
			err = errors.New("no members")
		}
		if err != nil {
			return nil, fmt.Errorf("%w: clique %d: %v", ErrCorrupt, id, err)
		}
		for _, v := range clique {
			counts[v]++
		}
		if id > 0 && compareCliques(prevClique, clique) >= 0 {
			return nil, fmt.Errorf("%w: clique %d out of canonical order", ErrCorrupt, id)
		}
		db.sizes[id] = uint32(len(clique))
		content.Add(clique)
		prevClique, scratch = clique, prevClique
	}
	if u32(coff, 0) != 0 || u32(coff, int(nCliques)) != uint32(len(cliq)) {
		return nil, fmt.Errorf("%w: COFF does not cover CLIQ exactly", ErrCorrupt)
	}
	if content.Sum32() != digest {
		return nil, fmt.Errorf("%w: content digest %#x, header promises %#x", ErrCorrupt, content.Sum32(), digest)
	}

	// Pass 2 — postings: every vertex's list must be exactly one canonical
	// run within its span, of the promised count, IDs below the clique
	// count. Then pass 3 replays the cliques through per-vertex cursors, so
	// each posting is proven to name exactly the cliques containing its
	// vertex.
	cursors := make([]durable.Run, nVerts)
	for v := int64(0); v < nVerts; v++ {
		lo, hi := u32(voff, int(v)), u32(voff, int(v)+1)
		if lo > hi || uint64(hi) > uint64(len(vpst)) {
			return nil, fmt.Errorf("%w: vertex %d has posting span [%d,%d)", ErrCorrupt, v, lo, hi)
		}
		ids, err := exactRun(scratch[:0], vpst[lo:hi], int64(nCliques))
		if err != nil {
			return nil, fmt.Errorf("%w: vertex %d posting: %v", ErrCorrupt, v, err)
		}
		if len(ids) != int(counts[v]) {
			return nil, fmt.Errorf("%w: vertex %d posting claims %d cliques, cliques hold it %d times", ErrCorrupt, v, len(ids), counts[v])
		}
		scratch = ids
		cursors[v] = durable.OpenRun(vpst[lo:hi])
	}
	if int64(u32(voff, 0)) != 0 || u32(voff, int(nVerts)) != uint32(len(vpst)) {
		return nil, fmt.Errorf("%w: VOFF does not cover VPST exactly", ErrCorrupt)
	}
	for id := uint64(0); id < nCliques; id++ {
		scratch = db.AppendClique(scratch[:0], uint32(id))
		for _, v := range scratch {
			got, ok := cursors[v].Next()
			if !ok || uint64(got) != id {
				return nil, fmt.Errorf("%w: vertex %d posting disagrees with clique %d", ErrCorrupt, v, id)
			}
		}
	}

	// Pass 4 — size index: exactly the (size desc, id asc) permutation.
	seen := make([]bool, nCliques)
	for i := uint64(0); i < nCliques; i++ {
		id := u32(size, int(i))
		if uint64(id) >= nCliques || seen[id] {
			return nil, fmt.Errorf("%w: SIZE entry %d names clique %d (dup or out of range)", ErrCorrupt, i, id)
		}
		seen[id] = true
		if i > 0 {
			prev := u32(size, int(i)-1)
			if db.sizes[prev] < db.sizes[id] ||
				(db.sizes[prev] == db.sizes[id] && prev >= id) {
				return nil, fmt.Errorf("%w: SIZE out of order at entry %d", ErrCorrupt, i)
			}
		}
	}
	return db, nil
}

// compareCliques orders cliques lexicographically over their ascending
// members, shorter-prefix first — the canonical index order.
func compareCliques(a, b []int32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
