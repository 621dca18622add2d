package cluster

import (
	"encoding/binary"
	"testing"

	"mce/internal/family"
)

// zeroFrame is the decode-amplification payload at size n: a well-formed
// result header claiming n cliques, then n zero bytes. A decoder that sizes
// anything by the claimed count before reading the cliques allocates 24 n
// bytes for it (at maxMessageLen, 24 GiB); each zero byte is an empty run,
// which no maximal clique is.
func zeroFrame(n int) []byte {
	p := append(taskID{ID: 1}.appendTo(nil, kindResult), 0)
	p = binary.LittleEndian.AppendUint32(p, uint32(n))
	return append(p, make([]byte, n)...)
}

// FuzzParseResult: a result payload is bytes off the network. Whatever they
// are, decoding returns a result or an error, never panics, and leaves the
// family holding no more than a small multiple of the payload: a member
// costs its decoder at least a byte and the family four, a clique at least
// two and the family eight more, and append may double either.
func FuzzParseResult(f *testing.F) {
	triangle, err := encodeResult(blockResult{taskID: taskID{ID: 3, Level: 1, Plan: 2}, Cliques: family.Of([][]int32{{10, 11, 12}, {11, 40}}).Window()})
	if err != nil {
		f.Fatal(err)
	}
	failed, _ := encodeResult(blockResult{taskID: taskID{ID: 9}, Err: "matrix too large"})
	f.Add(triangle)
	f.Add(failed)
	f.Add(zeroFrame(1 << 12))
	f.Fuzz(func(t *testing.T, p []byte) {
		dst := new(family.Family)
		res, err := parseResult(p, dst)
		if held, limit := dst.ArenaBytes(), 16*len(p)+256; held > limit {
			t.Fatalf("a %d-byte payload left the family holding %d bytes (limit %d)", len(p), held, limit)
		}
		if err != nil {
			if dst.Len() != 0 {
				t.Fatalf("refused (%v) but kept %d cliques", err, dst.Len())
			}
			return
		}
		if res.Cliques.Count != dst.Len() {
			t.Fatalf("result of %d cliques, family of %d", res.Cliques.Count, dst.Len())
		}
		again, err := encodeResult(res)
		if err != nil || string(again) != string(p) {
			t.Fatalf("accepted payload re-encodes differently (%v):\n got %x\nwant %x", err, again, p)
		}
	})
}
