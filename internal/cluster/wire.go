// Package cluster is the distributed substrate of the reproduction: the
// paper ran block analysis on a 10-node OpenMPI cluster (§6.1); here a
// coordinator (Client) ships blocks to worker processes over TCP as durable
// frames (internal/durable: length, CRC-32, payload), collects their
// cliques, requeues work from failed workers, and can simulate link latency
// so that the communication overhead trends of Figures 7–8 are exercised on
// a single machine.
//
// The protocol is a plain request/response stream per connection: the
// coordinator sends task frames and the worker answers one result frame per
// task, in order. Workers are stateless, so any task can be re-sent to any
// worker — that is what makes the failure handling trivial and matches the
// paper's "blocks are processed independently" design.
package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mce/internal/decomp"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/mcealg"
)

// protocolVersion guards against mismatched coordinator/worker builds: a
// peer that speaks another version, or no frames at all, is refused at the
// handshake. Version 4 replaced the gob stream of versions 1–3 with durable
// frames, whose CRC-32 covers the bytes actually transmitted: link-level
// corruption is detected and retried (the Corrupt verdict) instead of
// silently producing a wrong clique set.
const protocolVersion = 4

// Every frame's payload starts with its kind.
const (
	kindHello byte = iota + 1
	kindAck
	kindTask
	kindResult
)

// Frame length limits, for the handshake and for everything after it.
const (
	maxHandshakeLen = 64
	maxMessageLen   = 1 << 30
)

// Node classes of a task's block, one byte per local node. classNone marks
// a node no class list names; no worker accepts it.
const (
	classKernel byte = iota
	classBorder
	classVisited
	classNone = 0xff
)

// sendHello writes the handshake frame of the given kind — the coordinator's
// hello or the worker's ack: kind, version u32le, then one reserved zero
// byte.
func (l *link) sendHello(version int, kind byte) error {
	l.payload = binary.LittleEndian.AppendUint32(append(l.payload[:0], kind), uint32(version))
	l.payload = append(l.payload, 0)
	return l.send()
}

// recvHello reads the handshake frame of the given kind and returns the
// peer's version. Dial and the worker read it under maxHandshakeLen, so a
// peer whose first bytes are not a small frame — a gob stream from a
// version-3 build — is refused on them, and so is a hello whose reserved
// byte is not zero.
func recvHello(in *durable.FrameReader, kind byte) (version int, err error) {
	p, err := in.Next()
	if err == nil && (len(p) != 6 || p[0] != kind || p[5] != 0) {
		err = errors.New("cluster: not a handshake message")
	}
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(p[1:])), nil
}

// taskID opens every task and result after the kind byte: ID, Level and
// Plan as u32le.
type taskID struct {
	// ID numbers the task within its batch; the result echoes it.
	ID int
	// Level and Plan are the block's stable identity in the coordinator's
	// run plan (hub-recursion level and index within that level's
	// deterministic block plan), echoed so a checkpointing coordinator
	// journals completions under an identity that survives restarts; both
	// zero for non-checkpointed runs.
	Level, Plan int
}

const taskIDLen = 1 + 3*4

func (t taskID) appendTo(dst []byte, kind byte) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, kind), uint32(t.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Level))
	return binary.LittleEndian.AppendUint32(dst, uint32(t.Plan))
}

// parseTaskID splits the identity off a payload of the given kind.
func parseTaskID(p []byte, kind byte) (t taskID, rest []byte, err error) {
	if len(p) < taskIDLen || p[0] != kind {
		return t, nil, fmt.Errorf("cluster: not a message of kind %d", kind)
	}
	t.ID = int(binary.LittleEndian.Uint32(p[1:]))
	t.Level = int(binary.LittleEndian.Uint32(p[5:]))
	t.Plan = int(binary.LittleEndian.Uint32(p[9:]))
	return t, p[taskIDLen:], nil
}

// blockTask carries one second-level block and the combo the coordinator's
// decision tree chose for it. Encoded: the identity, the combo's Alg and
// Struct bytes, then the block as a durable.Block — its graph's own CSR
// arrays, Orig, and one class byte per node.
type blockTask struct {
	taskID
	Block *decomp.Block
	Combo mcealg.Combo
}

// appendTo appends the task payload. It fails, leaving dst unextended, when
// a class list names a node twice or out of range, or durable.AppendBlock
// refuses the block.
func (t *blockTask) appendTo(dst []byte) ([]byte, error) {
	b := t.Block
	class := bytes.Repeat([]byte{classNone}, b.Graph.N())
	for c, nodes := range [][]int32{classKernel: b.Kernel, classBorder: b.Border, classVisited: b.Visited} {
		for _, v := range nodes {
			if v < 0 || int(v) >= len(class) || class[v] != classNone {
				return dst, fmt.Errorf("cluster: task %d: node %d is out of range or in two classes", t.ID, v)
			}
			class[v] = byte(c)
		}
	}
	offsets, flat := b.Graph.CSR()
	p := append(t.taskID.appendTo(dst, kindTask), uint8(t.Combo.Alg), uint8(t.Combo.Struct))
	p, err := durable.AppendBlock(p, durable.Block{Offsets: offsets, Flat: flat, Orig: b.Orig, Class: class})
	if err != nil {
		return dst, fmt.Errorf("cluster: task %d: %w", t.ID, err)
	}
	return p, nil
}

// parseTask decodes a task payload on the worker side. The decoded CSR
// arrays become the graph as they are (graph.FromCSR checks that they are
// one), the class bytes the three node lists. The identity, once parsed, is
// returned even with an error, so a malformed block is answered under it.
func parseTask(p []byte) (t blockTask, err error) {
	if t.taskID, p, err = parseTaskID(p, kindTask); err != nil {
		return t, err
	}
	malformed := func(err error) (blockTask, error) {
		return t, fmt.Errorf("cluster: malformed task %d: %w", t.ID, err)
	}
	if len(p) < 2 {
		return malformed(durable.ErrShort)
	}
	t.Combo = mcealg.Combo{Alg: mcealg.Algorithm(p[0]), Struct: mcealg.Structure(p[1])}
	blk, rest, err := durable.DecodeBlock(p[2:])
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the block", len(rest))
	}
	if err != nil {
		return malformed(err)
	}
	g, err := graph.FromCSR(blk.Offsets, blk.Flat)
	if err != nil {
		return malformed(err)
	}
	b := &decomp.Block{Graph: g, Orig: blk.Orig}
	for v, c := range blk.Class {
		switch c {
		case classKernel:
			b.Kernel = append(b.Kernel, int32(v))
		case classBorder:
			b.Border = append(b.Border, int32(v))
		case classVisited:
			b.Visited = append(b.Visited, int32(v))
		default:
			return malformed(fmt.Errorf("node %d has class %d", v, c))
		}
	}
	t.Block = b
	return t, nil
}

// blockResult is the worker's answer to one blockTask. Encoded: the
// identity, the Corrupt byte, the clique count u32le, each clique as an
// ascending run, and Err as the rest of the payload.
type blockResult struct {
	taskID
	// Cliques holds the block's maximal cliques in global node IDs.
	Cliques family.Window
	// Err is a non-empty string when BLOCK-ANALYSIS failed; such failures
	// are deterministic (an oversized Matrix request, a malformed block),
	// so the coordinator does not retry them.
	Err string
	// Corrupt reports that the task's frame failed its checksum, so nothing
	// in it — its identity included — could be trusted. Unlike Err it is a
	// transport-level verdict: the coordinator requeues the block.
	Corrupt bool
}

// appendResultHead appends what precedes a result's cliques: the identity,
// the verdict and a clique count of zero. A worker appends the cliques
// behind it as the kernel emits them, so it holds a block's result only as
// the bytes it is about to send, and sets the count (the four bytes that
// end the head) when it knows it.
func appendResultHead(dst []byte, id taskID, corrupt bool) []byte {
	p := append(id.appendTo(dst, kindResult), 0)
	if corrupt {
		p[len(p)-1] = 1
	}
	return append(p, 0, 0, 0, 0)
}

// parseResult decodes a result payload, its cliques onto the end of dst, so
// what it allocates grows with the bytes it has consumed and never with the
// count the payload claims. On an error dst is as it was.
func parseResult(p []byte, dst *family.Family) (r blockResult, err error) {
	if r.taskID, p, err = parseTaskID(p, kindResult); err != nil {
		return r, err
	}
	first := dst.Len()
	malformed := func(what string) (blockResult, error) {
		dst.Truncate(first)
		return r, fmt.Errorf("cluster: malformed result %d: %s", r.ID, what)
	}
	if len(p) < 5 || p[0] > 1 {
		return malformed("no verdict")
	}
	r.Corrupt = p[0] == 1
	count := int(binary.LittleEndian.Uint32(p[1:]))
	if p = p[5:]; count < 0 || count > len(p) { // a clique takes at least one byte
		return malformed("more cliques than bytes")
	}
	var clique []int32
	for i := 0; i < count; i++ {
		if clique, p, err = durable.DecodeAscending(clique[:0], p, 1<<31); err != nil {
			return malformed(fmt.Sprintf("clique %d: %v", i, err))
		}
		if len(clique) == 0 {
			return malformed(fmt.Sprintf("clique %d is empty", i)) // a maximal clique has a member
		}
		dst.Append(clique)
	}
	r.Cliques = family.Window{F: dst, First: first, Count: count}
	r.Err = string(p)
	return r, nil
}

// link is one end of a connection: frames in, frames out, and the two
// buffers every outgoing message is built in.
type link struct {
	in      *durable.FrameReader
	out     io.Writer
	payload []byte // the message being sent, built by the caller
	frame   []byte
}

// newLink frames messages straight over conn.
func newLink(conn io.ReadWriter) *link {
	return &link{in: durable.NewFrameReader(conn, maxMessageLen), out: conn}
}

// send writes l.payload as one frame in one Write.
func (l *link) send() error {
	l.frame = durable.AppendFrame(l.frame[:0], l.payload)
	_, err := l.out.Write(l.frame)
	return err
}

// frameLen is the length of the frame a payload travels in: the bytes the
// message occupies on the wire, which is what the telemetry counts.
func frameLen(payload []byte) int64 { return int64(durable.FrameHeaderLen + len(payload)) }
