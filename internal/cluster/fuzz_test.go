package cluster

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"mce/internal/family"
)

// zeroFrame is the decode-amplification payload at size n: a well-formed
// result header claiming n cliques, then n zero bytes. A decoder that sizes
// anything by the claimed count before reading the cliques allocates 24 n
// bytes for it (at maxMessageLen, 24 GiB); each zero byte is an empty run,
// which no maximal clique is.
func zeroFrame(n int) []byte {
	p := appendResultHead(nil, taskID{ID: 1}, verdictDone, comboNone)
	binary.LittleEndian.PutUint32(p[len(p)-4:], uint32(n))
	return append(p, make([]byte, n)...)
}

// FuzzParseResult: a result payload is bytes off the network. Whatever they
// are, decoding returns a result or an error, never panics, and leaves the
// family holding no more than a small multiple of the payload: a member
// costs its decoder at least a byte and the family four, a clique at least
// two and the family eight more, and append may double either.
func FuzzParseResult(f *testing.F) {
	counts := blockCounts{Combo: 5, Nodes: 40, Pivots: 12, KernelNs: 31000}
	triangle, err := encodeResult(blockResult{taskID: taskID{ID: 3, Level: 1, Plan: 2}, blockCounts: counts, Cliques: family.Of([][]int32{{10, 11, 12}, {11, 40}}).Window()})
	if err != nil {
		f.Fatal(err)
	}
	failed, _ := encodeResult(blockResult{taskID: taskID{ID: 9}, blockCounts: blockCounts{Combo: comboNone}, Err: "matrix too large"})
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

// FuzzParseTask: a task payload — the membership of one block and,
// after a "graph unknown", the level graph it names — is bytes off the
// network. Whatever they are, decoding returns a task or an error, never
// panics, allocates no more than a small multiple of the payload (a member
// or a row entry costs the decoder at least a byte and its slice four, a
// row's offset four more, and the graph check clones the offsets), and an
// accepted payload re-encodes to the same bytes.
func FuzzParseTask(f *testing.F) {
	tri := triangleTask(7)
	withGraph, err := tri.appendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	tri.Level = nil
	membership, err := tri.appendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withGraph)
	f.Add(membership)
	f.Add(withGraph[:len(withGraph)-5])
	f.Fuzz(func(t *testing.T, p []byte) {
		// The process's allocation counter also counts whatever other
		// goroutines allocate meanwhile; the decode is deterministic, so the
		// least of a few measurements is its own.
		var task blockTask
		var err error
		allocated := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			task, err = parseTask(p, nil)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(32*len(p) + 4096); allocated > limit {
			t.Fatalf("a %d-byte payload allocated %d bytes to decode (limit %d)", len(p), allocated, limit)
		}
		if err != nil {
			return
		}
		if len(task.Class) != len(task.Orig) || task.Level != nil && task.Level.N() != task.Graph.N {
			t.Fatalf("accepted %d members with %d class bytes, level graph %v for address %+v", len(task.Orig), len(task.Class), task.Level, task.Graph)
		}
		again, err := task.appendTo(nil)
		if err != nil || string(again) != string(p) {
			t.Fatalf("accepted payload re-encodes differently (%v):\n got %x\nwant %x", err, again, p)
		}
	})
}
