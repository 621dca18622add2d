package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mce/internal/core"
	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/gen"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// appendTo appends the whole task payload, the level graph encoded behind
// the head when the task carries one: the bytes a coordinator's frame
// holds, built in one buffer.
func (t *blockTask) appendTo(dst []byte) ([]byte, error) {
	p, err := t.appendHead(dst, t.Level != nil)
	if err != nil || t.Level == nil {
		return p, err
	}
	return appendLevel(p, t.Level)
}

// peer is a hand-driven end of the wire protocol: the frame helpers with
// none of the Client's or the Worker's logic, for scripting conversations no
// real peer produces.
type peer struct{ *link }

func newPeer(conn io.ReadWriter) peer { return peer{newLink(conn)} }

func (p peer) recvHello(kind byte) (int, error) { return recvHello(p.in, kind) }

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
	verdict := verdictDone
	switch {
	case r.Corrupt:
		verdict = verdictCorrupt
	case r.Unknown:
		verdict = verdictGraphUnknown
	}
	p = appendResultHead(nil, r.taskID, verdict, r.Combo)
	setResultCounts(p, r.blockCounts, r.Cliques.Count)
	for i := 0; i < r.Cliques.Count; i++ {
		if p, err = durable.AppendAscending(p, r.Cliques.At(i)); err != nil {
			return nil, err
		}
	}
	return append(p, r.Err...), nil
}

// sameResult compares results field by field; cliques by their members.
func sameResult(a, b blockResult) bool {
	return a.taskID == b.taskID && a.blockCounts == b.blockCounts && a.Err == b.Err && a.Corrupt == b.Corrupt && a.Unknown == b.Unknown &&
		a.Cliques.Count == b.Cliques.Count && reflect.DeepEqual(a.Cliques.Views(nil), b.Cliques.Views(nil))
}

// acceptHello plays a worker's half of the handshake, answering version.
func (p peer) acceptHello(version int) bool {
	if _, err := p.recvHello(kindHello); err != nil {
		return false
	}
	return p.sendHello(version, kindAck) == nil
}

// swallowOneTask is a worker that handshakes correctly, reads the first
// task and hangs up without answering.
func swallowOneTask(conn net.Conn) {
	defer conn.Close()
	p := newPeer(conn)
	if p.acceptHello(protocolVersion) {
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
	if err := p.sendHello(protocolVersion, kindHello); err != nil {
		t.Fatal(err)
	}
	if version, err := p.recvHello(kindAck); err != nil || version != protocolVersion {
		t.Fatalf("ack = version %d, %v", version, err)
	}
	return p, cl, done
}

// triangleLevel is a level graph of 13 nodes whose only edges are the
// triangle 10, 11, 12.
func triangleLevel() *graph.Graph {
	b := graph.NewBuilder(13)
	b.AddEdge(10, 11)
	b.AddEdge(10, 12)
	b.AddEdge(11, 12)
	return b.Build()
}

// triangleTask is a valid all-kernel block of the triangle under global IDs
// 10, 11, 12, carrying its level graph.
func triangleTask(id int) blockTask {
	g := triangleLevel()
	return blockTask{
		taskID: taskID{ID: id},
		Graph:  keyOf(g),
		Rule:   dtree.Rule{Mode: dtree.RuleAsIs, Combo: mcealg.Combo{Alg: mcealg.Tomita, Struct: mcealg.BitSets}},
		Orig:   []int32{10, 11, 12},
		Class:  []byte{classKernel, classKernel, classKernel},
		Level:  g,
	}
}

// rawTask is the payload of task 1 from parts of the test's own making,
// which need not be any a coordinator could have sent: the level address,
// the encoded members, the class bytes and the encoded level graph (none
// when nil).
func rawTask(k graphKey, members, class, level []byte) []byte {
	p := taskID{ID: 1}.appendTo(nil, kindTask)
	p = binary.LittleEndian.AppendUint64(p, k.Digest)
	p = binary.LittleEndian.AppendUint32(p, uint32(k.N))
	p = binary.LittleEndian.AppendUint64(p, uint64(k.M))
	p = append(p, byte(dtree.RuleAsIs), byte(mcealg.Tomita), byte(mcealg.BitSets), 0)
	p = append(append(p, members...), class...)
	if level == nil {
		return append(p, 0)
	}
	return append(append(p, 1), level...)
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
// linter used to approximate for gob: every block decomp.Grow plans for the
// route-equivalence families, as a task with and without its level graph,
// and every result BLOCK-ANALYSIS yields for it, comes out of encode →
// frame → decode equal in every field, and re-encodes to the same bytes.
func TestWireRoundTrip(t *testing.T) {
	for _, fam := range routeFamilies() {
		blocks, rule := makeBlocks(fam.g, fam.m)
		if len(blocks) == 0 {
			t.Fatalf("%s: no blocks", fam.name)
		}
		results, err := analyzeBlocks(context.Background(), &core.LocalExecutor{}, fam.g, blocks, rule)
		if err != nil {
			t.Fatal(err)
		}
		key := keyOf(fam.g)
		for i := range blocks {
			id := taskID{ID: i, Level: 3, Plan: i + 7}
			class, err := appendClasses(nil, &blocks[i])
			if err != nil {
				t.Fatalf("%s block %d: %v", fam.name, i, err)
			}
			task := blockTask{taskID: id, Graph: key, Rule: rule, Orig: blocks[i].Orig, Class: class}
			if i == 0 {
				task.Level = fam.g
			}
			payload, err := task.appendTo(nil)
			if err != nil {
				t.Fatalf("%s block %d: %v", fam.name, i, err)
			}
			frame := durable.AppendFrame(nil, payload)
			got, err := durable.NewFrameReader(strings.NewReader(string(frame)), maxMessageLen).Next()
			if err != nil {
				t.Fatal(err)
			}
			back, err := parseTask(got, nil)
			if err != nil {
				t.Fatalf("%s block %d: %v", fam.name, i, err)
			}
			if back.taskID != id || back.Graph != key || back.Rule != rule {
				t.Fatalf("%s block %d: identity %+v, graph %+v, rule %+v came back %+v, %+v, %+v", fam.name, i, id, key, rule, back.taskID, back.Graph, back.Rule)
			}
			var planned decomp.Block
			back.block(&planned)
			if !sameBlock(&planned, &blocks[i]) {
				t.Fatalf("%s block %d changed on the wire:\n got %+v\nwant %+v", fam.name, i, planned, blocks[i])
			}
			if (back.Level != nil) != (task.Level != nil) || back.Level != nil && !sameGraph(back.Level, task.Level) {
				t.Fatalf("%s block %d: the level graph changed on the wire", fam.name, i)
			}
			if again, _ := back.appendTo(nil); string(again) != string(payload) {
				t.Fatalf("%s block %d: decoded task re-encodes to different bytes", fam.name, i)
			}

			counts := blockCounts{Combo: byte(rule.Combo.Index()), Nodes: int64(3 * i), Pivots: int64(i), KernelNs: 1e6 + int64(i)}
			res := blockResult{taskID: id, blockCounts: counts, Cliques: results[i]}
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
		{taskID: taskID{ID: 9, Level: 1, Plan: 2}, blockCounts: blockCounts{Combo: comboNone}, Err: "matrix too large"},
		{Corrupt: true},
		{taskID: taskID{ID: 4}, Unknown: true, blockCounts: blockCounts{Combo: comboNone}},
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
	// it: each payload is task 1's head — verdict, combo, counts and the
	// clique count — and a body.
	head := appendResultHead(nil, taskID{ID: 1}, verdictDone, comboNone)
	count := func(n uint32) []byte {
		p := slices.Clone(head)
		binary.LittleEndian.PutUint32(p[len(p)-4:], n)
		return p
	}
	verdict3 := slices.Clone(head)
	verdict3[taskIDLen] = 3
	for name, p := range map[string][]byte{
		"no verdict":              head[:taskIDLen],
		"verdict 3":               verdict3,
		"head cut short":          head[:len(head)-1],
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

// sameBlock compares planned blocks by their membership and classes.
func sameBlock(a, b *decomp.Block) bool {
	eq := func(x, y []int32) bool { return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y)) }
	return eq(a.Orig, b.Orig) && eq(a.Kernel, b.Kernel) && eq(a.Border, b.Border) && eq(a.Visited, b.Visited)
}

// sameGraph compares graphs by their CSR arrays.
func sameGraph(a, b *graph.Graph) bool {
	ao, af := a.CSR()
	bo, bf := b.CSR()
	return slices.Equal(ao, bo) && slices.Equal(af, bf)
}

// TestTaskRejectsBadClasses: a class list that overlaps another or names a
// node out of range never reaches the wire; a node no list names does, as
// classNone, which the worker refuses.
func TestTaskRejectsBadClasses(t *testing.T) {
	orig := []int32{10, 11, 12}
	for name, b := range map[string]decomp.Block{
		"overlap":      {Orig: orig, Kernel: []int32{0, 1, 2}, Border: []int32{1}},
		"out of range": {Orig: orig, Kernel: []int32{0, 1, 200}},
		"negative":     {Orig: orig, Kernel: []int32{0, 1}, Visited: []int32{-1}},
		"short IDs":    {Orig: orig[:2], Kernel: []int32{0, 1, 2}},
	} {
		if class, err := appendClasses([]byte{9}, &b); err == nil || !bytes.Equal(class, []byte{9}) {
			t.Errorf("%s: accepted as %v", name, class)
		}
	}
	task := triangleTask(1)
	if _, err := (&blockTask{Orig: orig, Class: task.Class[:2]}).appendTo(nil); err == nil {
		t.Error("two class bytes for three members: accepted")
	}
	class, err := appendClasses(nil, &decomp.Block{Orig: orig, Kernel: []int32{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	task.Class = class
	p, err := task.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseTask(p, nil); err == nil || !strings.Contains(err.Error(), "class 255") {
		t.Fatalf("unclassed node: parseTask = %v", err)
	}
}

// gobV3Hello is a version-3 coordinator's first message, as encoding/gob
// wrote it: 3.
const gobV3Hello = "2b7f0301010568656c6c6f01ff80000102010756657273696f6e0104000108436f6d7072657373010200000005ff80010600"

// TestWorkerRefusesOtherProtocols: a worker hangs up on a peer that does
// not open with a version-5 hello — a gob stream, a well-formed frame
// carrying another version (version 4, which shipped induced subgraphs,
// included), or a hello whose reserved byte is set (the DEFLATE request of
// older builds) — promptly and without serving it. A refused version is
// named beside the worker's own.
func TestWorkerRefusesOtherProtocols(t *testing.T) {
	gobBytes, err := hex.DecodeString(gobV3Hello)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		first []byte
		acked bool // answered with the worker's version before the hang-up
	}{
		{"gob v3 hello", gobBytes, false},
		{"frame with version 3", durable.AppendFrame(nil, []byte{kindHello, 3, 0, 0, 0, 0}), true},
		{"frame with version 4", durable.AppendFrame(nil, []byte{kindHello, 4, 0, 0, 0, 0}), true},
		{"version 4 with flag byte 1", durable.AppendFrame(nil, []byte{kindHello, 4, 0, 0, 0, 1}), false},
		{"version 5 with flag byte 1", durable.AppendFrame(nil, []byte{kindHello, protocolVersion, 0, 0, 0, 1}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, sv := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- ServeConn(sv); sv.Close() }()
			cl.SetDeadline(time.Now().Add(5 * time.Second))
			go cl.Write(tc.first)
			// A hello of another version is answered with the worker's own
			// before the hang-up, so the coordinator can name the mismatch;
			// anything else just sees the connection close.
			rest, err := io.ReadAll(cl)
			if err != nil {
				t.Fatalf("worker did not hang up: %v", err)
			}
			if tc.acked {
				in := durable.NewFrameReader(strings.NewReader(string(rest)), maxHandshakeLen)
				if version, err := recvHello(in, kindAck); err != nil || version != protocolVersion {
					t.Fatalf("ack = version %d, %v", version, err)
				}
			} else if len(rest) != 0 {
				t.Fatalf("worker answered a refused hello with %d bytes", len(rest))
			}
			err = <-done
			if err == nil || !strings.Contains(err.Error(), "handshake") && !strings.Contains(err.Error(), "version") {
				t.Fatalf("ServeConn = %v, want a handshake refusal", err)
			}
			if tc.acked && !strings.Contains(err.Error(), fmt.Sprintf("version %d, worker %d", tc.first[durable.FrameHeaderLen+1], protocolVersion)) {
				t.Fatalf("ServeConn = %v, want both versions named", err)
			}
		})
	}
}

// TestHelloBytesPinned: on a fault-free connection the coordinator's hello
// and the worker's ack are each one frame whose payload is exactly kind,
// version u32le, 0 — the handshake bytes every protocol-5 peer expects.
func TestHelloBytesPinned(t *testing.T) {
	frame := func(kind byte) []byte {
		return durable.AppendFrame(nil, []byte{kind, protocolVersion, 0, 0, 0, 0})
	}
	sent := make(chan []byte, 1)
	addr := fakeWorker(t, func(conn net.Conn) {
		defer conn.Close()
		got := make([]byte, len(frame(kindHello)))
		if _, err := io.ReadFull(conn, got); err != nil {
			sent <- nil
			return
		}
		sent <- got
		conn.Write(frame(kindAck))
		io.Copy(io.Discard, conn)
	})
	client, err := Dial([]string{addr}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if got := <-sent; !bytes.Equal(got, frame(kindHello)) {
		t.Fatalf("coordinator hello = %x, want %x", got, frame(kindHello))
	}

	cl, sv := net.Pipe()
	go func() { ServeConn(sv); sv.Close() }()
	defer cl.Close()
	cl.SetDeadline(time.Now().Add(5 * time.Second))
	go cl.Write(frame(kindHello))
	got := make([]byte, len(frame(kindAck)))
	if _, err := io.ReadFull(cl, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame(kindAck)) {
		t.Fatalf("worker ack = %x, want %x", got, frame(kindAck))
	}
}

// TestDialRefusesOtherProtocols: Dial fails, inside its context's deadline,
// on a worker that answers the hello the way a version-3 build would — by
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
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := DialContext(ctx, []string{fakeWorker(t, handle)}, ClientOptions{})
			if err == nil || !strings.Contains(err.Error(), "handshake ack") {
				t.Fatalf("err = %v, want a handshake failure", err)
			}
			if elapsed := time.Since(t0); elapsed > 2*time.Second {
				t.Fatalf("refusal took %v", elapsed)
			}
		})
	}
}

// TestWorkerMalformedTaskIsolation: a task whose members are not classed,
// ascending nodes of its level graph, or whose attached level graph is not
// a simple undirected graph matching its address and the worker's cap,
// comes back as an in-band error under its own ID — decoded and refused,
// not recovered from a panic — and a task naming a graph the worker does
// not hold comes back "graph unknown". The same connection keeps serving
// afterwards.
func TestWorkerMalformedTaskIsolation(t *testing.T) {
	p, cl, done := dialPipe(t)
	tri := triangleLevel()
	key := keyOf(tri)
	run := func(vs ...int32) []byte {
		b, err := durable.AppendAscending(nil, vs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	csr := func(offsets, flat []int32) []byte {
		b, err := durable.AppendCSR(nil, durable.CSR{Offsets: offsets, Flat: flat})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kernels := []byte{classKernel, classKernel, classKernel}
	offsets, flat := tri.CSR()
	level := csr(offsets, flat)
	// Row 12 lists 9 instead of 10: six row entries, as the address says,
	// but the edge (10, 12) is missing from row 12.
	asymmetric := csr(append(slices.Clone(offsets[:11]), 2, 4, 6), []int32{11, 12, 10, 12, 9, 11})
	otherDigest, moreEdges, huge := key, key, key
	otherDigest.Digest++
	moreEdges.M++
	huge.N = math.MaxInt32
	good := rawTask(key, run(10, 11, 12), kernels, level)
	cases := map[string][]byte{
		"member out of range":           rawTask(key, run(10, 11, 13), kernels, level),
		"members repeat":                rawTask(key, []byte{3, 10, 1, 0}, kernels, level),
		"class out of range":            rawTask(key, run(10, 11, 12), []byte{classKernel, 7, classKernel}, level),
		"asymmetric level graph":        rawTask(keyOf(tri), run(10, 11, 12), kernels, asymmetric),
		"level graph of another digest": rawTask(otherDigest, run(10, 11, 12), kernels, level),
		"level graph of other counts":   rawTask(moreEdges, run(10, 11, 12), kernels, level),
		"oversized level graph":         rawTask(huge, run(10, 11, 12), kernels, level),
		"level graph cut short":         good[:len(good)-2],
		"bytes after the task":          append(rawTask(key, run(10, 11, 12), kernels, nil), 0),
		"bad level flag":                append(rawTask(key, run(10, 11, 12), kernels, nil)[:len(good)-len(level)-1], 2),
		"no rule":                       good[:taskIDLen+graphKeyLen+2],
	}
	badMode := slices.Clone(good)
	badMode[taskIDLen+graphKeyLen] = 3
	cases["rule mode 3"] = badMode
	for name, payload := range cases {
		p.payload = append(p.payload[:0], payload...)
		if err := p.send(); err != nil {
			t.Fatal(err)
		}
		res, err := p.recvResult()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ID != 1 || res.Corrupt || res.Unknown || !strings.Contains(res.Err, "malformed task 1") || strings.Contains(res.Err, "panic") {
			t.Fatalf("%s: result = %+v, want an in-band malformed-task error", name, res)
		}
	}

	// A well-formed task naming a graph this worker has never been sent.
	p.payload = append(p.payload[:0], rawTask(otherDigest, run(10, 11, 12), kernels, nil)...)
	if err := p.send(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.recvResult(); err != nil || res.ID != 1 || !res.Unknown || res.Err != "" || res.Cliques.Count != 0 {
		t.Fatalf("unknown graph: result = %+v, %v; want the graph-unknown verdict", res, err)
	}

	// The worker survived: a valid task on the same connection still works,
	// and leaves its graph behind for the next task, which names it only.
	task := triangleTask(2)
	for range 2 {
		if err := p.sendTask(&task); err != nil {
			t.Fatal(err)
		}
		res, err := p.recvResult()
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != 2 || res.Err != "" || res.Unknown || res.Cliques.Count != 1 {
			t.Fatalf("result after malformed tasks = %+v", res)
		}
		task.Level = nil
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeConn returned %v", err)
	}
}
