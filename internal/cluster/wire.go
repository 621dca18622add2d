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
// task, in order. A task carries a block's membership, not its subgraph:
// each worker keeps the level graphs it has been sent, by content address,
// and induces every block itself, as the paper's workers read their blocks
// from a shared store (§6.2). A worker that does not hold a task's graph
// says so and is sent it, so what a worker holds is a cache, never state a
// task depends on: any task can still be re-sent to any worker — that is
// what keeps the failure handling simple and matches the paper's "blocks
// are processed independently" design.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"mce/internal/decomp"
	"mce/internal/dtree"
	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/mcealg"
	"mce/internal/runlog"
)

// protocolVersion guards against mismatched coordinator/worker builds: a
// peer that speaks another version, or no frames at all, is refused at the
// handshake. Version 4 replaced the gob stream of versions 1–3 with durable
// frames, whose CRC-32 covers the bytes actually transmitted: link-level
// corruption is detected and retried (the Corrupt verdict) instead of
// silently producing a wrong clique set. Version 5 ships membership instead
// of induced subgraphs (a task names its level graph by content address)
// and returns the worker's combo pick and kernel counts with every result.
const protocolVersion = 5

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

// graphKey is the content address of a level graph: runlog.GraphDigest of
// its CSR arrays, and its node and edge counts. Encoded: the digest u64le,
// N u32le and M u64le.
type graphKey struct {
	Digest uint64
	N      int
	M      int64
}

const graphKeyLen = 8 + 4 + 8

func keyOf(g *graph.Graph) graphKey {
	return graphKey{Digest: runlog.GraphDigest(g), N: g.N(), M: int64(g.M())}
}

// size is the resident size of the graph k names: its CSR arrays' bytes.
// An address whose edge count no cap admits reports the largest size.
func (k graphKey) size() int64 {
	if k.M > math.MaxInt64/16 {
		return math.MaxInt64
	}
	return 4*(int64(k.N)+1) + 8*k.M
}

// blockTask carries one block of a level: its identity, the address of the
// level graph it was planned over, the level's combo-selection rule and
// the block's membership — Orig, ascending in level-graph IDs, and one class
// byte per member. The worker induces the block from its copy of the level
// graph. A task is first sent without the graph; a worker that does not
// hold it answers "graph unknown", and the task is sent again with Level,
// the graph itself, attached.
//
// Encoded: the identity; the graph's address; the rule as four bytes —
// mode, Alg, Struct, parallel (0 or 1); Orig as one ascending run; the class
// bytes; then 0, or 1 followed by the level graph as a durable.CSR.
type blockTask struct {
	taskID
	Graph graphKey
	Rule  dtree.Rule
	Orig  []int32
	Class []byte
	Level *graph.Graph
}

// appendHead appends the task payload up to the encoded level graph: all
// of it when attached is false, the part before the graph's bytes when it
// is true (the sender sends those from the level's one encoding,
// appendLevel). It fails, leaving dst unextended, when Orig is not
// strictly ascending or the class bytes do not match it.
func (t *blockTask) appendHead(dst []byte, attached bool) ([]byte, error) {
	if len(t.Class) != len(t.Orig) {
		return dst, fmt.Errorf("cluster: task %d: %d class bytes for %d members", t.ID, len(t.Class), len(t.Orig))
	}
	p := t.taskID.appendTo(dst, kindTask)
	p = binary.LittleEndian.AppendUint64(p, t.Graph.Digest)
	p = binary.LittleEndian.AppendUint32(p, uint32(t.Graph.N))
	p = binary.LittleEndian.AppendUint64(p, uint64(t.Graph.M))
	parallel := byte(0)
	if t.Rule.Parallel {
		parallel = 1
	}
	p = append(p, byte(t.Rule.Mode), byte(t.Rule.Combo.Alg), byte(t.Rule.Combo.Struct), parallel)
	p, err := durable.AppendAscending(p, t.Orig)
	if err != nil {
		return dst, fmt.Errorf("cluster: task %d: members: %w", t.ID, err)
	}
	p = append(p, t.Class...)
	if attached {
		return append(p, 1), nil
	}
	return append(p, 0), nil
}

// appendLevel appends the encoding of a level graph a task carries.
func appendLevel(dst []byte, g *graph.Graph) ([]byte, error) {
	offsets, flat := g.CSR()
	p, err := durable.AppendCSR(dst, durable.CSR{Offsets: offsets, Flat: flat})
	if err != nil {
		return dst, fmt.Errorf("level graph: %w", err)
	}
	return p, nil
}

// appendClasses appends one class byte per member of the planned block b.
// It fails when a class list names a member twice or out of range; a
// member no list names is appended as classNone, which no worker accepts.
func appendClasses(dst []byte, b *decomp.Block) ([]byte, error) {
	at := len(dst)
	for range b.Orig {
		dst = append(dst, classNone)
	}
	class := dst[at:]
	for c, nodes := range [][]int32{classKernel: b.Kernel, classBorder: b.Border, classVisited: b.Visited} {
		for _, v := range nodes {
			if v < 0 || int(v) >= len(class) || class[v] != classNone {
				return dst[:at], fmt.Errorf("node %d is out of range or in two classes", v)
			}
			class[v] = byte(c)
		}
	}
	return dst, nil
}

// parseTask decodes a task payload on the worker side. Members must be
// strictly ascending below the level graph's node count, each class byte
// one of the three classes, and an attached level graph must be one —
// graph.FromCSR checks that — match its address in counts and digest and
// fit residentGraphBytes, which is checked before any of it is decoded.
// Class aliases p, and Orig is decoded onto orig[:0]. The identity, once
// parsed, is returned even with an error, so a malformed task is answered
// under it.
func parseTask(p []byte, orig []int32) (t blockTask, err error) {
	if t.taskID, p, err = parseTaskID(p, kindTask); err != nil {
		return t, err
	}
	malformed := func(err error) (blockTask, error) {
		return t, fmt.Errorf("cluster: malformed task %d: %w", t.ID, err)
	}
	if len(p) < graphKeyLen+4 {
		return malformed(durable.ErrShort)
	}
	t.Graph = graphKey{
		Digest: binary.LittleEndian.Uint64(p),
		N:      int(binary.LittleEndian.Uint32(p[8:])),
		M:      int64(binary.LittleEndian.Uint64(p[12:])),
	}
	if t.Graph.N > math.MaxInt32 || t.Graph.M < 0 {
		return malformed(fmt.Errorf("level graph of %d nodes and %d edges", t.Graph.N, t.Graph.M))
	}
	r := p[graphKeyLen : graphKeyLen+4]
	if r[0] > byte(dtree.RuleAsIs) || r[3] > 1 {
		return malformed(fmt.Errorf("rule bytes %v", r))
	}
	t.Rule = dtree.Rule{Mode: dtree.Mode(r[0]), Combo: mcealg.Combo{Alg: mcealg.Algorithm(r[1]), Struct: mcealg.Structure(r[2])}, Parallel: r[3] == 1}
	if t.Orig, p, err = durable.DecodeAscending(orig[:0], p[graphKeyLen+4:], int64(t.Graph.N)); err != nil {
		return malformed(fmt.Errorf("members: %w", err))
	}
	if len(p) < len(t.Orig)+1 {
		return malformed(durable.ErrShort)
	}
	t.Class, p = p[:len(t.Orig)], p[len(t.Orig):]
	for v, c := range t.Class {
		if c > classVisited {
			return malformed(fmt.Errorf("node %d has class %d", v, c))
		}
	}
	switch p, attached := p[1:], p[0]; attached {
	case 0:
		if len(p) != 0 {
			return malformed(fmt.Errorf("%d bytes after the task", len(p)))
		}
		return t, nil
	case 1:
		if t.Level, err = parseLevel(p, t.Graph); err != nil {
			return malformed(err)
		}
		return t, nil
	default:
		return malformed(fmt.Errorf("level graph flag %d", attached))
	}
}

// parseLevel decodes the level graph a task carries, which must be all of
// p, and checks it against its address k.
func parseLevel(p []byte, k graphKey) (*graph.Graph, error) {
	if size := k.size(); size > residentGraphBytes {
		return nil, fmt.Errorf("level graph of %d bytes exceeds the worker's %d-byte cap", size, residentGraphBytes)
	}
	var flat []int32
	if entries := 2 * k.M; entries <= int64(len(p)) { // an entry takes a byte at least
		flat = make([]int32, 0, entries)
	}
	c, rest, err := durable.DecodeCSR(flat, p)
	if err != nil {
		return nil, fmt.Errorf("level graph: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the level graph", len(rest))
	}
	if n, entries := len(c.Offsets)-1, int64(len(c.Flat)); n != k.N || entries != 2*k.M {
		return nil, fmt.Errorf("level graph of %d nodes and %d row entries, addressed as %d nodes and %d edges", n, entries, k.N, k.M)
	}
	g, err := graph.FromCSR(c.Offsets, c.Flat)
	if err != nil {
		return nil, fmt.Errorf("level graph: %w", err)
	}
	if d := runlog.GraphDigest(g); d != k.Digest {
		return nil, fmt.Errorf("level graph digest %016x, addressed as %016x", d, k.Digest)
	}
	return g, nil
}

// block fills b with the task's block as planned: Orig and the three class
// lists, in local IDs, reusing b's list buffers.
func (t *blockTask) block(b *decomp.Block) {
	b.Graph, b.Orig = nil, t.Orig
	b.Kernel, b.Border, b.Visited = b.Kernel[:0], b.Border[:0], b.Visited[:0]
	for v, c := range t.Class {
		switch c {
		case classKernel:
			b.Kernel = append(b.Kernel, int32(v))
		case classBorder:
			b.Border = append(b.Border, int32(v))
		default:
			b.Visited = append(b.Visited, int32(v))
		}
	}
}

// A result's verdict: the block was analysed (or failed with Err), the task
// frame failed its checksum, or the task names a level graph the worker
// does not hold.
const (
	verdictDone byte = iota
	verdictCorrupt
	verdictGraphUnknown
)

// comboNone is a result's combo byte when no combo was picked.
const comboNone = 0xff

// blockCounts is what a worker measured analysing one block: the combo it
// picked (mcealg.Combo.Index, or comboNone) and the kernel's recursion
// nodes, pivot selections and wall time. The coordinator merges the counts
// of the answer that wins the block's claim into its own telemetry.
type blockCounts struct {
	Combo         byte
	Nodes, Pivots int64
	KernelNs      int64
}

// blockResult is the worker's answer to one blockTask. Encoded: the
// identity, the verdict byte, the combo byte, recursion nodes, pivot
// selections and kernel ns as u64le, the clique count u32le, each clique as
// an ascending run, and Err as the rest of the payload.
type blockResult struct {
	taskID
	blockCounts
	// Cliques holds the block's maximal cliques in global node IDs.
	Cliques family.Window
	// Err is a non-empty string when BLOCK-ANALYSIS failed; such failures
	// are deterministic (an oversized Matrix request, a malformed task), so
	// the coordinator does not retry them.
	Err string
	// Corrupt reports that the task's frame failed its checksum, so nothing
	// in it — its identity included — could be trusted. Unlike Err it is a
	// transport-level verdict: the coordinator requeues the block.
	Corrupt bool
	// Unknown reports that the task names a level graph the worker does not
	// hold: the coordinator sends the task again with the graph attached.
	Unknown bool
}

// resultHeadLen is the length of a result's head: the identity, the
// verdict, the combo byte, three counts and the clique count.
const resultHeadLen = taskIDLen + 2 + 3*8 + 4

// appendResultHead appends what precedes a result's cliques: the identity,
// the verdict, the combo byte and zero counts and clique count. A worker
// appends the cliques behind it as the kernel emits them, so it holds a
// block's result only as the bytes it is about to send, and sets the counts
// (setResultCounts) when it knows them.
func appendResultHead(dst []byte, id taskID, verdict, combo byte) []byte {
	return append(append(id.appendTo(dst, kindResult), verdict, combo), make([]byte, 3*8+4)...)
}

// setResultCounts writes counts and the clique count into the head that
// starts p.
func setResultCounts(p []byte, c blockCounts, cliques int) {
	at := taskIDLen + 2
	binary.LittleEndian.PutUint64(p[at:], uint64(c.Nodes))
	binary.LittleEndian.PutUint64(p[at+8:], uint64(c.Pivots))
	binary.LittleEndian.PutUint64(p[at+16:], uint64(c.KernelNs))
	binary.LittleEndian.PutUint32(p[at+24:], uint32(cliques))
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
	if len(p) < resultHeadLen-taskIDLen || p[0] > verdictGraphUnknown {
		return malformed("no verdict")
	}
	r.Corrupt, r.Unknown = p[0] == verdictCorrupt, p[0] == verdictGraphUnknown
	r.Combo = p[1]
	r.Nodes = int64(binary.LittleEndian.Uint64(p[2:]))
	r.Pivots = int64(binary.LittleEndian.Uint64(p[10:]))
	r.KernelNs = int64(binary.LittleEndian.Uint64(p[18:]))
	count := int(binary.LittleEndian.Uint32(p[26:]))
	if p = p[30:]; count < 0 || count > len(p) { // a clique takes at least one byte
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

// sendWith writes one frame whose payload is l.payload followed by tail,
// without copying tail: a level graph shared by every connection that
// sends it.
func (l *link) sendWith(tail []byte) error {
	if len(tail) == 0 {
		return l.send()
	}
	l.frame = append(durable.AppendFrameHeader(l.frame[:0], l.payload, tail), l.payload...)
	bufs := net.Buffers{l.frame, tail}
	_, err := bufs.WriteTo(l.out)
	return err
}

// frameLen is the length of the frame a payload travels in: the bytes the
// message occupies on the wire, which is what the telemetry counts.
func frameLen(payload []byte) int64 { return int64(durable.FrameHeaderLen + len(payload)) }
