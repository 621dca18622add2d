package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{{1}, []byte("hello"), bytes.Repeat([]byte{0xab}, 10_000)}
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	fr := NewFrameReader(bytes.NewReader(stream), 1<<20)
	for i, want := range payloads {
		got, err := fr.Next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestFrameReaderRejects(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"torn header", good[:5], io.ErrUnexpectedEOF},
		{"torn payload", good[:len(good)-2], io.ErrUnexpectedEOF},
		{"zero length", make([]byte, 8), ErrFrameLength},
		{"over the limit", AppendFrame(nil, make([]byte, 65)), ErrFrameLength},
		{"length field all ones", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, ErrFrameLength},
		{"flipped payload byte", flipped, ErrChecksum},
	}
	for _, tc := range cases {
		_, err := NewFrameReader(bytes.NewReader(tc.stream), 64).Next()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	// A checksum failure consumes exactly the frame: the next one reads.
	fr := NewFrameReader(bytes.NewReader(append(flipped, good...)), 64)
	if _, err := fr.Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("first frame: %v", err)
	}
	if p, err := fr.Next(); err != nil || string(p) != "payload" {
		t.Fatalf("frame after a checksum failure: %q, %v", p, err)
	}
}

// TestFrameReaderAllocatesAsBytesArrive: a header promising a gigabyte
// over a ten-byte stream costs a few kilobytes, not a gigabyte.
func TestFrameReaderAllocatesAsBytesArrive(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, 1<<30)
	stream = append(stream, 0, 0, 0, 0, 1, 2)
	fr := NewFrameReader(bytes.NewReader(stream), 1<<30)
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(fr.buf) > 1<<16 {
		t.Fatalf("reader buffered %d bytes for a 2-byte payload", cap(fr.buf))
	}
}

func TestAscendingRoundTrip(t *testing.T) {
	for _, run := range [][]int32{nil, {0}, {5}, {0, 1, 2}, {3, 1000000, 2000000000}, {1<<31 - 1}} {
		b, err := AppendAscending([]byte{0xee}, run)
		if err != nil {
			t.Fatalf("%v: %v", run, err)
		}
		got, rest, err := DecodeAscending([]int32{-7}, append(b[1:], 0xdd), 1<<31)
		if err != nil || len(rest) != 1 || rest[0] != 0xdd {
			t.Fatalf("%v: rest %v, err %v", run, rest, err)
		}
		if got[0] != -7 || len(got) != 1+len(run) || (len(run) > 0 && !reflect.DeepEqual(got[1:], run)) {
			t.Fatalf("%v decoded as %v", run, got)
		}
		cur := OpenRun(b[1:])
		if cur.Len() != len(run) {
			t.Fatalf("%v: cursor holds %d", run, cur.Len())
		}
		for _, want := range run {
			if v, ok := cur.Next(); !ok || v != want {
				t.Fatalf("%v: cursor yields %d, %v", run, v, ok)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatalf("%v: cursor overruns", run)
		}
		if all := AppendRun([]int32{-7}, b[1:]); !slices.Equal(all, got) {
			t.Fatalf("%v: AppendRun gives %v", run, all)
		}
	}
}

func TestAppendAscendingRejects(t *testing.T) {
	for _, run := range [][]int32{{3, 1}, {1, 1}, {-1}, {0, -5}} {
		if b, err := AppendAscending([]byte{9}, run); !errors.Is(err, ErrNotAscending) || len(b) != 1 {
			t.Errorf("%v: %v, %d bytes", run, err, len(b))
		}
	}
}

func TestDecodeAscendingRejects(t *testing.T) {
	cases := []struct {
		name  string
		b     []byte
		bound int64
		want  error
	}{
		{"empty input", nil, 10, ErrShort},
		{"count only", []byte{2}, 10, ErrShort},
		{"ends mid-run", []byte{2, 1}, 10, ErrShort},
		{"ends mid-varint", []byte{1, 0x80}, 1 << 31, ErrShort},
		{"count over the bytes left", []byte{200, 1, 1, 1}, 1 << 31, ErrShort},
		{"count over the bound", []byte{5, 0, 1, 1, 1, 1}, 4, ErrMalformed},
		{"repeated member", []byte{2, 3, 0}, 10, ErrMalformed},
		{"member at the bound", []byte{1, 10}, 10, ErrMalformed},
		{"gap past the bound", []byte{2, 1, 9}, 10, ErrMalformed},
		{"padded count", []byte{0x81, 0x00, 1}, 10, ErrMalformed},
		{"padded gap", []byte{1, 0x80, 0x00}, 10, ErrMalformed},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), 1 << 31, ErrMalformed},
		{"gap wraps int64", append([]byte{2, 1}, binary.AppendUvarint(nil, 1<<63)...), 1 << 31, ErrMalformed},
	}
	for _, tc := range cases {
		dst := []int32{42}
		got, rest, err := DecodeAscending(dst, tc.b, tc.bound)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if len(got) != 1 || len(rest) != len(tc.b) {
			t.Errorf("%s: a failed decode moved the output (%v) or the input (%d left)", tc.name, got, len(rest))
		}
	}
}

// sampleCSR is a path 0–1–2 plus an isolated node.
func sampleCSR() CSR {
	return CSR{
		Offsets: []int32{0, 1, 3, 4, 4},
		Flat:    []int32{1, 0, 2, 1},
	}
}

func TestCSRRoundTrip(t *testing.T) {
	for _, c := range []CSR{sampleCSR(), {Offsets: []int32{0}}} {
		enc, err := AppendCSR([]byte{1, 2}, c)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeCSR(nil, append(enc[2:], 0xdd))
		if err != nil || len(rest) != 1 {
			t.Fatalf("decode: %v, %d bytes left", err, len(rest))
		}
		again, err := AppendCSR(nil, got)
		if err != nil || !bytes.Equal(again, enc[2:]) {
			t.Fatalf("decoded CSR re-encodes differently (%v)", err)
		}
		if len(c.Flat) > 0 && !reflect.DeepEqual(got, c) {
			t.Fatalf("got %+v, want %+v", got, c)
		}
	}
	// Rows decoded onto a buffer sized for them are held at that size.
	enc, _ := AppendCSR(nil, sampleCSR())
	sized := make([]int32, 0, 4)
	if got, _, err := DecodeCSR(sized, enc); err != nil || cap(got.Flat) != 4 || &got.Flat[:1][0] != &sized[:1][0] {
		t.Fatalf("decoding onto a sized buffer: %v, cap %d", err, cap(got.Flat))
	}
}

func TestAppendCSRRejects(t *testing.T) {
	for name, mutate := range map[string]func(*CSR){
		"no offsets":   func(c *CSR) { c.Offsets = nil },
		"row descends": func(c *CSR) { c.Flat[1], c.Flat[2] = 2, 0 },
		"negative":     func(c *CSR) { c.Flat[0] = -1 },
	} {
		c := sampleCSR()
		mutate(&c)
		if out, err := AppendCSR([]byte{5}, c); err == nil || len(out) != 1 {
			t.Errorf("%s: accepted (%d bytes)", name, len(out))
		}
	}
}

func TestDecodeCSRRejects(t *testing.T) {
	good, err := AppendCSR(nil, sampleCSR())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeCSR(nil, good[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("cut at %d of %d: err %v, want ErrShort", cut, len(good), err)
		}
	}
	for name, p := range map[string][]byte{
		"node count over the input": {200, 1, 0},
		"neighbour at n":            {2, 1, 2, 1, 0},
		"row repeats":               {2, 2, 1, 0, 1, 0},
		"padded node count":         {0x82, 0x00, 0, 0},
	} {
		if _, _, err := DecodeCSR(nil, p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzFrameReader: arbitrary bytes never panic the reader, never make it
// buffer more than the stream holds, and whatever it accepts re-frames to
// the bytes it was read from.
func FuzzFrameReader(f *testing.F) {
	f.Add(AppendFrame(AppendFrame(nil, []byte("one")), []byte("two")))
	f.Add(AppendFrame(nil, []byte("torn"))[:9])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<20)
		off := 0
		for {
			p, err := fr.Next()
			if cap(fr.buf) > 2*len(data)+8192 {
				t.Fatalf("reader buffered %d bytes of a %d-byte stream", cap(fr.buf), len(data))
			}
			if err != nil {
				return
			}
			frame := AppendFrame(nil, p)
			if !bytes.Equal(frame, data[off:off+len(frame)]) {
				t.Fatalf("frame at %d does not re-encode to its own bytes", off)
			}
			off += len(frame)
		}
	})
}

// FuzzDecodeAscending: arbitrary bytes never panic the decoder or make it
// allocate past their length; what decodes is strictly ascending inside the
// bound and is the canonical encoding of itself.
func FuzzDecodeAscending(f *testing.F) {
	seed, _ := AppendAscending(nil, []int32{1, 2, 3, 100000})
	f.Add(seed, int64(1<<31))
	f.Add([]byte{0}, int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x07, 1}, int64(1<<31))
	f.Add([]byte{2, 0x80, 0x00, 1}, int64(10))
	f.Fuzz(func(t *testing.T, data []byte, bound int64) {
		if bound < 0 || bound > 1<<31 {
			bound = 1 << 31
		}
		run, rest, err := DecodeAscending(nil, data, bound)
		if err != nil {
			if len(run) != 0 || len(rest) != len(data) {
				t.Fatal("a failed decode moved the output or the input")
			}
			return
		}
		if cap(run) > 2*len(data)+8 { // Grow rounds up to a size class
			t.Fatalf("%d members allocated for %d bytes", cap(run), len(data))
		}
		for i, v := range run {
			if v < 0 || int64(v) >= bound || (i > 0 && v <= run[i-1]) {
				t.Fatalf("member %d of %v breaks the contract (bound %d)", i, run, bound)
			}
		}
		enc, err := AppendAscending(nil, run)
		if err != nil || !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatalf("accepted bytes are not the canonical encoding of %v (%v)", run, err)
		}
		if all := AppendRun(nil, data); !slices.Equal(all, run) {
			t.Fatalf("the unchecked decode of accepted bytes gives %v, the strict one %v", all, run)
		}
	})
}

// FuzzDecodeCSR: the same for the CSR adjacency codec.
func FuzzDecodeCSR(f *testing.F) {
	seed, _ := AppendCSR(nil, sampleCSR())
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, rest, err := DecodeCSR(nil, data)
		if err != nil {
			return
		}
		n := len(c.Offsets) - 1
		if n > len(data) || len(c.Flat) > len(data) || int(c.Offsets[n]) != len(c.Flat) {
			t.Fatalf("CSR of %d nodes, %d entries (last offset %d) from %d bytes", n, len(c.Flat), c.Offsets[n], len(data))
		}
		for _, u := range c.Flat {
			if u < 0 || int(u) >= n {
				t.Fatalf("neighbour %d outside a %d-node graph", u, n)
			}
		}
		enc, err := AppendCSR(nil, c)
		if err != nil || !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatalf("accepted bytes are not the canonical encoding of their CSR (%v)", err)
		}
	})
}

// TestQuickAscending is the encode-first direction of the round trip on
// random runs, which the decode-first fuzz targets reach only by luck.
func TestQuickAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		run := make([]int32, rng.Intn(40))
		next := int32(rng.Intn(1000))
		for j := range run {
			run[j] = next
			next += 1 + int32(rng.Intn(1<<uint(rng.Intn(20))))
		}
		enc, err := AppendAscending(nil, run)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeAscending(nil, enc, 1<<31)
		if err != nil || len(rest) != 0 || len(got) != len(run) || (len(run) > 0 && !reflect.DeepEqual(got, run)) {
			t.Fatalf("%v came back %v (%v)", run, got, err)
		}
		if all := AppendRun(nil, enc); !slices.Equal(all, run) {
			t.Fatalf("%v: AppendRun gives %v", run, all)
		}
	}
}
