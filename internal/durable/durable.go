// Package durable is the byte vocabulary shared by everything that leaves
// the process — journal records, wire messages, clique segments, the
// serving index, disk graphs: the record frame, AtomicReplace over the FS
// seam, the ascending run, and the CSR adjacency built from runs. DESIGN.md §18
// gives the layouts and lists who uses each.
//
// Every decoder treats its input as untrusted: lengths are checked against
// the bytes actually present before anything is allocated, varints must be
// minimal and runs strictly ascending, so what decodes has exactly one
// encoding.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
)

// FrameHeaderLen is the size of a frame's length + checksum prefix.
const FrameHeaderLen = 8

var (
	// ErrFrameLength reports a frame header whose length field is zero or
	// over the reader's limit: a torn or overwritten header, or a peer that
	// does not speak frames at all.
	ErrFrameLength = errors.New("durable: frame length is zero or over the limit")
	// ErrChecksum reports a frame whose payload does not match its CRC-32.
	// The declared bytes were consumed, so if the length field was intact
	// the stream is positioned at the next frame.
	ErrChecksum = errors.New("durable: frame checksum mismatch")
)

// AppendFrame appends payload to dst as one frame: its length and its
// CRC-32 (IEEE), both uint32 little endian, then the bytes. The payload
// must be non-empty and shorter than 4 GiB.
func AppendFrame(dst, payload []byte) []byte {
	return append(AppendFrameHeader(dst, payload, nil), payload...)
}

// AppendFrameHeader appends the header of the frame whose payload is
// head followed by tail, so a writer can send a large tail it shares with
// other frames without copying it behind each head.
func AppendFrameHeader(dst, head, tail []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(head)+len(tail)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, tail))
}

// FrameReader reads frames off a stream.
type FrameReader struct {
	r   io.Reader
	max uint32
	hdr [FrameHeaderLen]byte
	buf []byte
}

// NewFrameReader reads frames of at most maxLen payload bytes from r,
// exactly the bytes of each frame and never ahead.
func NewFrameReader(r io.Reader, maxLen uint32) *FrameReader {
	return &FrameReader{r: r, max: maxLen}
}

// Next returns the payload of the next frame, valid until the following
// call. The stream ending on a frame boundary is io.EOF, inside a frame
// io.ErrUnexpectedEOF; a bad header is ErrFrameLength and a bad payload
// ErrChecksum. The buffer grows only as payload bytes arrive, so a header
// that promises more than the stream holds costs no more memory than the
// stream does.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n == 0 || n > fr.max {
		return nil, ErrFrameLength
	}
	buf := fr.buf[:0]
	for want := int(n); len(buf) < want; {
		step := min(want-len(buf), max(len(buf), 4096))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			fr.buf = buf
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.buf = buf
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(fr.hdr[4:8]) {
		return nil, ErrChecksum
	}
	return buf, nil
}
