// Package cliqstore persists clique families compactly: each clique is one
// ascending run (internal/durable: uvarint count, first member, gaps)
// behind a small header. On social networks the members of a clique are
// often close in ID space, so the encoding lands well under half of a naive
// int32 dump — the difference between a result that fits on disk and one
// that does not when enumerating the billions of cliques the paper's
// Figure 9 y-axis reaches.
//
// The format is streamable in both directions, pairing with the engine's
// EnumerateStream: cliques go to disk as they are found and come back one
// at a time.
//
// A store ("MCE2") is sealed by a trailer carrying the clique count and a
// CRC-32 content digest, so a segment whose tail was lost to a crash — even
// one truncated exactly on a clique boundary — is reported as ErrTruncated
// instead of silently dropping trailing cliques. The trailer-less version 1
// ("MCE1"), which could not tell such a store from a complete one, is
// refused.
package cliqstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"mce/internal/durable"
)

// magic guards against feeding arbitrary files to the reader; its last byte
// is the format version.
var magic = [4]byte{'M', 'C', 'E', '2'}

// trailerSentinel marks the trailer in the clique stream, in the place of a
// clique's member count. Clique sizes are capped at 2^31, so the sentinel
// can never be read as a valid size.
const trailerSentinel = uint64(1) << 32

var (
	// ErrTruncated reports a store that ended before its trailer: the tail
	// of the segment (possibly whole cliques) is missing.
	ErrTruncated = errors.New("cliqstore: truncated store (no trailer; the segment tail is missing)")
	// ErrCorrupt reports a store whose trailer does not match its content
	// (count or CRC-32 mismatch).
	ErrCorrupt = errors.New("cliqstore: corrupt store")
)

// Digester accumulates the content digest of a clique family, one clique at
// a time: CRC-32 (IEEE) over each clique's length and members as uint32
// little endian. It covers decoded content, so it is independent of the
// encoding and can be recomputed from an in-memory family. The zero value
// is ready; the trailer, the checkpoint journal (internal/runlog) and the
// index header (internal/cliqdb) all carry this digest.
type Digester struct {
	sum uint32
	buf []byte // one clique as the bytes the CRC covers, reused
}

// Add folds one clique into the digest. The clique is laid out in the
// reused buffer and checksummed in one call: crc32.Update takes its input
// through a function variable, so a buffer local to Add would be allocated
// on every call, and four bytes at a time never reach the table-sliced or
// hardware CRC.
func (d *Digester) Add(clique []int32) {
	buf := binary.LittleEndian.AppendUint32(d.buf[:0], uint32(len(clique)))
	for _, v := range clique {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	d.sum = crc32.Update(d.sum, crc32.IEEETable, buf)
	d.buf = buf
}

// Sum32 returns the digest of the cliques added so far.
func (d *Digester) Sum32() uint32 { return d.sum }

// Digest returns the content digest of a clique family.
func Digest(cliques [][]int32) uint32 {
	var d Digester
	for _, c := range cliques {
		d.Add(c)
	}
	return d.Sum32()
}

// WriteAll writes cliques to w as one sealed store and reports its clique
// count and content digest.
func WriteAll(w io.Writer, cliques [][]int32) (count int64, digest uint32, err error) {
	sw, err := NewWriter(w)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range cliques {
		if err := sw.Write(c); err != nil {
			return 0, 0, err
		}
	}
	return sw.Count(), sw.Digest(), sw.Finish()
}

// Writer streams cliques into an io.Writer. Create with NewWriter; call
// Finish when done to seal the store with its trailer (Flush alone leaves
// the store unsealed, which readers report as truncated).
type Writer struct {
	w        *bufio.Writer
	buf      []byte
	count    int64
	digest   Digester
	finished bool
	err      error
}

// NewWriter writes the header and returns a ready Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("cliqstore: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one clique; members must be ascending and non-negative.
func (w *Writer) Write(clique []int32) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		w.err = errors.New("cliqstore: write after Finish")
		return w.err
	}
	buf, err := durable.AppendAscending(w.buf[:0], clique)
	if err != nil {
		w.err = fmt.Errorf("cliqstore: %w", err)
		return w.err
	}
	w.buf = buf
	if err := w.flushBuf(); err != nil {
		return err
	}
	w.digest.Add(clique)
	w.count++
	return nil
}

// flushBuf hands w.buf to the buffered writer.
func (w *Writer) flushBuf() error {
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("cliqstore: %w", err)
		return w.err
	}
	return nil
}

// Count reports how many cliques have been written.
func (w *Writer) Count() int64 { return w.count }

// Digest reports the running content digest of the cliques written so far;
// after Finish it equals the digest sealed into the trailer.
func (w *Writer) Digest() uint32 { return w.digest.Sum32() }

// Finish seals the store: it writes the trailer (clique count + content
// CRC-32) and drains the buffer. No cliques can be written afterwards;
// Finish is idempotent.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return nil
	}
	w.finished = true
	w.buf = binary.AppendUvarint(w.buf[:0], trailerSentinel)
	w.buf = binary.AppendUvarint(w.buf, uint64(w.count))
	w.buf = binary.AppendUvarint(w.buf, uint64(w.digest.Sum32()))
	if err := w.flushBuf(); err != nil {
		return err
	}
	return w.Flush()
}

// Flush drains the buffer; call it before closing the underlying file. A
// flushed-but-unfinished store is readable up to its last complete clique,
// but readers report it as truncated — call Finish to seal it.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("cliqstore: %w", err)
	}
	return nil
}

// Reader streams cliques back from a store. It decodes from a window over
// the input that is refilled, and grown for a clique larger than it, only
// as bytes arrive.
type Reader struct {
	src        io.Reader
	win        []byte // input read so far; win[off:] is not yet decoded
	off        int
	eof        bool // src is exhausted
	buf        []int32
	digest     Digester
	count      int64
	sawTrailer bool
}

// NewReader validates the header and returns a ready Reader. A version-1
// store is refused: it has no trailer, so its completeness cannot be
// verified.
func NewReader(r io.Reader) (*Reader, error) {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return nil, fmt.Errorf("cliqstore: reading header: %w", err)
	}
	if got == [4]byte{'M', 'C', 'E', '1'} {
		return nil, errors.New("cliqstore: version 1 store (MCE1) has no trailer to verify and is no longer read; re-run the enumeration to rewrite it as MCE2")
	}
	if got != magic {
		return nil, errors.New("cliqstore: not a clique store (bad magic)")
	}
	return &Reader{src: r}, nil
}

// Count reports how many cliques have been read so far.
func (r *Reader) Count() int64 { return r.count }

// Digest reports the running content digest of the cliques read so far.
// After a successful drain it equals the trailer digest.
func (r *Reader) Digest() uint32 { return r.digest.Sum32() }

// Next returns the next clique, or io.EOF when the store is exhausted. The
// returned slice is reused by subsequent calls; copy to retain.
//
// A clean end of input before the trailer returns ErrTruncated (wrapped)
// instead of io.EOF, and a trailer that disagrees with the content returns
// ErrCorrupt (wrapped); io.EOF therefore guarantees the store was read back
// complete and intact.
func (r *Reader) Next() ([]int32, error) {
	if r.sawTrailer {
		return nil, io.EOF
	}
	for {
		clique, err := r.decode()
		if !errors.Is(err, durable.ErrShort) {
			return clique, err
		}
		if r.eof {
			return nil, fmt.Errorf("%w (read %d cliques)", ErrTruncated, r.count)
		}
		if err := r.fill(); err != nil {
			return nil, fmt.Errorf("cliqstore: %w", err)
		}
	}
}

// fill reads more input behind the undecoded window, doubling the buffer
// when one undecoded value already fills it.
func (r *Reader) fill() error {
	r.win = r.win[:copy(r.win, r.win[r.off:])]
	r.off = 0
	if len(r.win) == cap(r.win) {
		r.win = slices.Grow(r.win, max(len(r.win), 4096))
	}
	n, err := io.ReadAtLeast(r.src, r.win[len(r.win):cap(r.win)], 1)
	r.win = r.win[:len(r.win)+n]
	if err == io.EOF {
		r.eof, err = true, nil
	}
	return err
}

// decode takes the next clique — or the trailer, which sits where a
// clique's member count would — off the window. durable.ErrShort means the
// window ends inside it.
func (r *Reader) decode() ([]int32, error) {
	b := r.win[r.off:]
	if size, n := binary.Uvarint(b); n > 0 && size == trailerSentinel {
		return nil, r.readTrailer(b[n:])
	}
	clique, rest, err := durable.DecodeAscending(r.buf[:0], b, 1<<31)
	if err != nil {
		if !errors.Is(err, durable.ErrShort) {
			err = fmt.Errorf("cliqstore: corrupt clique after %d cliques: %w", r.count, err)
		}
		return nil, err
	}
	r.off = len(r.win) - len(rest)
	r.buf = clique
	r.digest.Add(clique)
	r.count++
	return clique, nil
}

// readTrailer validates the trailer (count and digest, after the sentinel)
// against the content read so far and returns io.EOF on success.
func (r *Reader) readTrailer(b []byte) error {
	var field [2]uint64
	for i := range field {
		v, n := binary.Uvarint(b)
		if n == 0 {
			return durable.ErrShort
		}
		if n < 0 {
			return fmt.Errorf("%w: unreadable trailer", ErrCorrupt)
		}
		field[i], b = v, b[n:]
	}
	count, sum := field[0], field[1]
	if count != uint64(r.count) {
		return fmt.Errorf("%w: trailer promises %d cliques, store holds %d", ErrCorrupt, count, r.count)
	}
	if sum > 1<<32-1 || uint32(sum) != r.digest.Sum32() {
		return fmt.Errorf("%w: content digest mismatch (trailer %#x, content %#x)", ErrCorrupt, sum, r.digest.Sum32())
	}
	r.sawTrailer = true
	return io.EOF
}

// ForEach drains the store, calling fn per clique (slice reused). It fails
// with ErrTruncated / ErrCorrupt (wrapped) when the store does not verify
// against its trailer.
func (r *Reader) ForEach(fn func(clique []int32) error) error {
	for {
		c, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
}
