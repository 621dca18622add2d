package cluster

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// peer is a hand-driven end of the wire protocol: the frame helpers with
// none of the Client's or the Worker's logic, for scripting conversations no
// real peer produces.
type peer struct{ *link }

func newPeer(conn io.ReadWriter) peer { return peer{newLink(conn)} }

func (p peer) recvHello(kind byte) (hello, error) { return recvHello(p.in, kind) }

func (p peer) sendTask(t *blockTask) (err error) {
	if p.payload, err = t.appendTo(p.payload[:0]); err != nil {
		return err
	}
	return p.send()
}

func (p peer) recvResult() (blockResult, error) {
	b, err := p.in.Next()
	if err != nil {
		return blockResult{}, err
	}
	return parseResult(b, new(family.Family))
}

// encodeResult is a result payload built the way a worker builds one.
func encodeResult(r blockResult) (p []byte, err error) {
	p = appendResultHead(nil, r.taskID, r.Corrupt)
	binary.LittleEndian.PutUint32(p[len(p)-4:], uint32(r.Cliques.Count))
	for i := 0; i < r.Cliques.Count; i++ {
		if p, err = durable.AppendAscending(p, r.Cliques.At(i)); err != nil {
			return nil, err
		}
	}
	return append(p, r.Err...), nil
}

// sameResult compares results field by field; cliques by their members.
func sameResult(a, b blockResult) bool {
	return a.taskID == b.taskID && a.Err == b.Err && a.Corrupt == b.Corrupt &&
		a.Cliques.Count == b.Cliques.Count && reflect.DeepEqual(a.Cliques.Views(nil), b.Cliques.Views(nil))
}

// acceptHello plays a worker's half of the handshake, answering ack.
func (p peer) acceptHello(ack hello) bool {
	if _, err := p.recvHello(kindHello); err != nil {
		return false
	}
	return p.sendHello(ack, kindAck) == nil
}

// swallowOneTask is a worker that handshakes correctly, reads the first
// task and hangs up without answering.
func swallowOneTask(conn net.Conn) {
	defer conn.Close()
	p := newPeer(conn)
	if p.acceptHello(hello{Version: protocolVersion}) {
		_, _ = p.in.Next()
	}
}

// dialPipe handshakes with a ServeConn worker over an in-memory pipe.
func dialPipe(t *testing.T) (peer, net.Conn, chan error) {
	t.Helper()
	cl, sv := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeConn(sv) }()
	p := newPeer(cl)
	if err := p.sendHello(hello{Version: protocolVersion}, kindHello); err != nil {
		t.Fatal(err)
	}
	if ack, err := p.recvHello(kindAck); err != nil || ack.Version != protocolVersion {
		t.Fatalf("ack = %+v, %v", ack, err)
	}
	return p, cl, done
}

// triangleTask is a valid all-kernel triangle under global IDs 10, 11, 12.
func triangleTask(id int) blockTask {
	return blockTask{
		taskID: taskID{ID: id},
		Block:  &decomp.Block{Graph: graph.Complete(3), Orig: []int32{10, 11, 12}, Kernel: []int32{0, 1, 2}},
		Combo:  mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets},
	}
}

// rawTask is the payload of task 1 around a block of the test's own
// making, which need not be one a coordinator could have sent.
func rawTask(t *testing.T, b durable.Block) []byte {
	t.Helper()
	p := append(taskID{ID: 1}.appendTo(nil, kindTask), uint8(mcealg.Tomita), uint8(mcealg.BitSets))
	p, err := durable.AppendBlock(p, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// routeFamilies are the four graph families of core's TestRoutesAgree, with
// block sizes small enough for hubs, borders and visited nodes to occur.
func routeFamilies() []struct {
	name string
	g    *graph.Graph
	m    int
} {
	return []struct {
		name string
		g    *graph.Graph
		m    int
	}{
		{"ErdosRenyi", gen.ErdosRenyi(150, 0.1, 3), 14},
		{"HolmeKim", gen.HolmeKim(600, 5, 0.7, 37), 10},
		{"PlantedCliques", gen.PlantCliques(gen.BarabasiAlbert(300, 3, 5), 6, 5, 9, 11), 9},
		{"TheoremOneChain", gen.HardChain(30, 4, 0), 5},
	}
}

// TestWireRoundTrip is the codec's losslessness property — what a field
// linter used to approximate for gob: every block decomp.Blocks plans for
// the route-equivalence families, and every result BLOCK-ANALYSIS yields
// for it, comes out of encode → frame → decode equal in every field, and
// re-encodes to the same bytes.
func TestWireRoundTrip(t *testing.T) {
	for _, fam := range routeFamilies() {
		blocks, combo := makeBlocks(fam.g, fam.m)
		if len(blocks) == 0 {
			t.Fatalf("%s: no blocks", fam.name)
		}
		results, err := (&core.LocalExecutor{}).AnalyzeBlocks(blocks, combo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			id := taskID{ID: i, Level: 3, Plan: i + 7}
			task := blockTask{taskID: id, Block: &blocks[i], Combo: combo}
			payload, err := task.appendTo(nil)
			if err != nil {
				t.Fatalf("%s block %d: %v", fam.name, i, err)
			}
			frame := durable.AppendFrame(nil, payload)
			got, err := durable.NewFrameReader(strings.NewReader(string(frame)), maxMessageLen).Next()
			if err != nil {
				t.Fatal(err)
			}
			back, err := parseTask(got)
			if err != nil {
				t.Fatalf("%s block %d: %v", fam.name, i, err)
			}
			if back.taskID != id || back.Combo != combo {
				t.Fatalf("%s block %d: identity %+v, combo %v came back %+v, %v", fam.name, i, id, combo, back.taskID, back.Combo)
			}
			if !sameBlock(back.Block, &blocks[i]) {
				t.Fatalf("%s block %d changed on the wire:\n got %+v\nwant %+v", fam.name, i, back.Block, blocks[i])
			}
			if again, _ := back.appendTo(nil); string(again) != string(payload) {
				t.Fatalf("%s block %d: decoded task re-encodes to different bytes", fam.name, i)
			}

			res := blockResult{taskID: id, Cliques: results[i]}
			rp, err := encodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			// Decoded behind what the family already holds, as a connection
			// runner's second answer is.
			dst := family.Of([][]int32{{1, 2}})
			rback, err := parseResult(rp, dst)
			if err != nil {
				t.Fatalf("%s result %d: %v", fam.name, i, err)
			}
			if !sameResult(rback, res) || rback.Cliques.First != 1 || dst.Len() != 1+res.Cliques.Count {
				t.Fatalf("%s result %d changed on the wire:\n got %+v\nwant %+v", fam.name, i, rback, res)
			}
			if again, _ := encodeResult(rback); string(again) != string(rp) {
				t.Fatalf("%s result %d: decoded result re-encodes to different bytes", fam.name, i)
			}
		}
	}
	for _, res := range []blockResult{
		{taskID: taskID{ID: 9, Level: 1, Plan: 2}, Err: "matrix too large"},
		{Corrupt: true},
	} {
		p, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseResult(p, new(family.Family)); err != nil || !sameResult(back, res) {
			t.Fatalf("result %+v came back %+v, %v", res, back, err)
		}
	}

	// What a result decoder must refuse, and leave the family as it found
	// it: each payload is task 1's header, the verdict, a count and a body.
	head := append(taskID{ID: 1}.appendTo(nil, kindResult), 0)
	count := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(slices.Clone(head), n) }
	for name, p := range map[string][]byte{
		"no verdict":              head[:len(head)-1],
		"verdict 2":               append(head[:len(head)-1:len(head)-1], 2, 0, 0, 0, 0),
		"more cliques than bytes": append(count(3), 1, 5),
		"clique cut short":        append(count(1), 3, 5, 1),
		"clique not ascending":    append(count(1), 2, 5, 0),
		"empty clique":            append(count(2), 1, 5, 0),
		// The amplification frame: a count of cliques with nothing but zero
		// bytes behind it used to be accepted as that many empty cliques,
		// 24 bytes of slice header each (zeroFrame, in fuzz_test.go).
		"zero-filled frame": zeroFrame(1 << 16),
	} {
		dst := family.Of([][]int32{{7, 8, 9}})
		before := dst.ArenaBytes()
		if res, err := parseResult(p, dst); err == nil {
			t.Errorf("%s: accepted as %+v", name, res)
		}
		if dst.Len() != 1 || !reflect.DeepEqual(dst.At(0), []int32{7, 8, 9}) {
			t.Errorf("%s: the family was left holding %v", name, dst.Views(nil))
		}
		if grown := dst.ArenaBytes() - before; grown > 1024 {
			t.Errorf("%s: refusing %d bytes grew the family by %d", name, len(p), grown)
		}
	}
}

// sameBlock compares blocks field by field; graphs by their CSR arrays.
func sameBlock(a, b *decomp.Block) bool {
	ao, af := a.Graph.CSR()
	bo, bf := b.Graph.CSR()
	eq := func(x, y []int32) bool { return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y)) }
	return eq(ao, bo) && eq(af, bf) && eq(a.Orig, b.Orig) &&
		eq(a.Kernel, b.Kernel) && eq(a.Border, b.Border) && eq(a.Visited, b.Visited)
}

// TestTaskRejectsBadClasses: a class list that overlaps another or names a
// node out of range never reaches the wire; a node no list names does, as
// classNone, which the worker refuses.
func TestTaskRejectsBadClasses(t *testing.T) {
	g := graph.Complete(3)
	orig := []int32{10, 11, 12}
	for name, b := range map[string]decomp.Block{
		"overlap":      {Graph: g, Orig: orig, Kernel: []int32{0, 1, 2}, Border: []int32{1}},
		"out of range": {Graph: g, Orig: orig, Kernel: []int32{0, 1, 200}},
		"negative":     {Graph: g, Orig: orig, Kernel: []int32{0, 1}, Visited: []int32{-1}},
		"short IDs":    {Graph: g, Orig: orig[:2], Kernel: []int32{0, 1, 2}},
	} {
		if _, err := (&blockTask{Block: &b}).appendTo(nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	unclassed := decomp.Block{Graph: g, Orig: orig, Kernel: []int32{0, 1}}
	p, err := (&blockTask{Block: &unclassed}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseTask(p); err == nil || !strings.Contains(err.Error(), "class 255") {
		t.Fatalf("unclassed node: parseTask = %v", err)
	}
}

// gobV3Hello is a version-3 coordinator's first message, as encoding/gob
// wrote it: hello{Version: 3, Compress: false}.
const gobV3Hello = "2b7f0301010568656c6c6f01ff80000102010756657273696f6e0104000108436f6d7072657373010200000005ff80010600"

// TestWorkerRefusesOtherProtocols: a worker hangs up on a peer that does
// not open with a version-4 hello — a gob stream, or a well-formed frame
// carrying another version — promptly and without serving it.
func TestWorkerRefusesOtherProtocols(t *testing.T) {
	gobBytes, err := hex.DecodeString(gobV3Hello)
	if err != nil {
		t.Fatal(err)
	}
	otherVersion := durable.AppendFrame(nil, []byte{kindHello, 3, 0, 0, 0, 0})
	for name, first := range map[string][]byte{"gob v3 hello": gobBytes, "frame with version 3": otherVersion} {
		t.Run(name, func(t *testing.T) {
			cl, sv := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- ServeConn(sv); sv.Close() }()
			cl.SetDeadline(time.Now().Add(5 * time.Second))
			go cl.Write(first)
			// A framed hello is answered with the worker's own version
			// before the hang-up, so the coordinator can name the mismatch;
			// anything else just sees the connection close.
			rest, err := io.ReadAll(cl)
			if err != nil {
				t.Fatalf("worker did not hang up: %v", err)
			}
			if name == "frame with version 3" {
				in := durable.NewFrameReader(strings.NewReader(string(rest)), maxHandshakeLen)
				if ack, err := recvHello(in, kindAck); err != nil || ack.Version != protocolVersion {
					t.Fatalf("ack = %+v, %v", ack, err)
				}
			} else if len(rest) != 0 {
				t.Fatalf("worker answered a gob peer with %d bytes", len(rest))
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), "handshake") && !strings.Contains(err.Error(), "version") {
				t.Fatalf("ServeConn = %v, want a handshake refusal", err)
			}
		})
	}
}

// TestDialRefusesOtherProtocols: Dial fails, inside the dial timeout, on a
// worker that answers the hello the way a version-3 build would — by
// hanging up on bytes it cannot decode, or with a gob ack.
func TestDialRefusesOtherProtocols(t *testing.T) {
	gobAck, _ := hex.DecodeString("2fff810301010868656c6c6f41636b01ff82000102010756657273696f6e0104000108436f6d7072657373010200000005ff82010600")
	for name, handle := range map[string]func(net.Conn){
		"hangs up": func(conn net.Conn) {
			conn.Read(make([]byte, 1))
			conn.Close()
		},
		"gob ack": func(conn net.Conn) {
			defer conn.Close()
			conn.Read(make([]byte, 64))
			conn.Write(gobAck)
		},
	} {
		t.Run(name, func(t *testing.T) {
			t0 := time.Now()
			_, err := Dial([]string{fakeWorker(t, handle)}, ClientOptions{DialTimeout: 2 * time.Second})
			if err == nil || !strings.Contains(err.Error(), "handshake ack") {
				t.Fatalf("err = %v, want a handshake failure", err)
			}
			if elapsed := time.Since(t0); elapsed > 2*time.Second {
				t.Fatalf("refusal took %v", elapsed)
			}
		})
	}
}

// TestWorkerMalformedTaskIsolation: a task whose block is not a simple
// undirected graph with classed nodes comes back as an in-band error under
// its own ID — decoded and refused, not recovered from a panic — and the
// same connection keeps serving afterwards.
func TestWorkerMalformedTaskIsolation(t *testing.T) {
	p, cl, done := dialPipe(t)
	triangle := func(f func(*durable.Block)) []byte {
		b := durable.Block{
			Offsets: []int32{0, 2, 4, 6},
			Flat:    []int32{1, 2, 0, 2, 0, 1},
			Orig:    []int32{10, 11, 12},
			Class:   []byte{classKernel, classKernel, classKernel},
		}
		f(&b)
		return rawTask(t, b)
	}
	header := triangle(func(*durable.Block) {})[:taskIDLen+2]
	cases := map[string][]byte{
		// Row 0 is "1, 1": a zero gap, the only way the encoding can spell
		// a row out of order.
		"unsorted row": append(append([]byte(nil), header...),
			3, 2, 1, 0, 2, 0, 2, 2, 0, 1, 3, 10, 1, 1, classKernel, classKernel, classKernel),
		"asymmetric edge": triangle(func(b *durable.Block) {
			b.Offsets, b.Flat = []int32{0, 2, 3, 5}, []int32{1, 2, 2, 0, 1}
		}),
		"self loop": triangle(func(b *durable.Block) {
			b.Offsets, b.Flat = []int32{0, 3, 5, 7}, []int32{0, 1, 2, 0, 2, 0, 1}
		}),
		"neighbour out of range": triangle(func(b *durable.Block) { b.Flat[5] = 3 }),
		"class out of range":     triangle(func(b *durable.Block) { b.Class[1] = 7 }),
		"truncated block":        triangle(func(*durable.Block) {})[:taskIDLen+2+4],
		"no combo":               header[:taskIDLen+1],
	}
	for name, payload := range cases {
		p.payload = append(p.payload[:0], payload...)
		if err := p.send(); err != nil {
			t.Fatal(err)
		}
		res, err := p.recvResult()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ID != 1 || res.Corrupt || !strings.Contains(res.Err, "malformed task 1") || strings.Contains(res.Err, "panic") {
			t.Fatalf("%s: result = %+v, want an in-band malformed-task error", name, res)
		}
	}

	// The worker survived: a valid task on the same connection still works.
	good := triangleTask(2)
	if err := p.sendTask(&good); err != nil {
		t.Fatal(err)
	}
	res, err := p.recvResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 2 || res.Err != "" || res.Cliques.Count != 1 {
		t.Fatalf("result after malformed tasks = %+v", res)
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeConn returned %v", err)
	}
}
