package runlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/graph"
	"mce/internal/telemetry"
)

// Identity ties a checkpoint directory to one (graph, options) pair. A
// journal whose identity does not match the run being started is refused:
// resuming with a different graph or different plan-affecting options would
// silently merge incompatible block plans.
type Identity struct {
	// Graph is a digest of the input graph (GraphDigest).
	Graph uint64
	// Options is a digest of every option that shapes the block plan or
	// the result set: block size m, the greedy-decomposition tuning
	// (min adjacency, seed order, block-plan seed), the recursion cap and
	// any pinned combo. Transport and scheduling options are excluded —
	// they change how blocks run, never what they produce.
	Options uint64
}

// GraphDigest fingerprints a graph: FNV-1a over the node count and the CSR
// arrays, folded a 32-bit word at a time (one multiply per neighbour; the
// byte-wise digest of journal version 1 took eight). Two graphs with the
// same digest are, for checkpointing purposes, the same input.
func GraphDigest(g *graph.Graph) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	offsets, flat := g.CSR()
	h := (offset64 ^ uint64(g.N())) * prime64
	for _, words := range [2][]int32{offsets, flat} {
		for _, w := range words {
			h = (h ^ uint64(uint32(w))) * prime64
		}
	}
	return h
}

// OptionsDigest folds an ordered list of plan-affecting option values into
// one digest (FNV-64a). Callers must always pass the same fields in the
// same order; see core.CheckpointIdentity.
func OptionsDigest(fields ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range fields {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// BlockID is the stable identity of one unit of work: the recursion level
// it belongs to and its index within that level's deterministic block plan.
// It names the block's journal records, so a block retried, re-dispatched, or
// resumed in a later session is always the same block — the mechanism that
// makes re-execution idempotent.
type BlockID struct {
	Level int
	Plan  int
}

// BatchObserver receives per-block lifecycle callbacks from an executor as
// a batch runs, so completions are handed to the checkpoint the moment they
// happen rather than when the whole batch returns. Implementations must
// tolerate concurrent calls. BlockDone returning an error aborts the batch.
type BatchObserver interface {
	BlockDispatched(id BlockID)
	BlockDone(id BlockID, cliques family.Window) error
}

// ErrIdentityMismatch reports a checkpoint directory that belongs to a
// different run. It is wrapped with the differing digests.
var ErrIdentityMismatch = errors.New("runlog: checkpoint belongs to a different run")

// Options tunes a Checkpoint.
type Options struct {
	// Metrics, when non-nil, receives checkpoint telemetry: records and
	// bytes appended, commits and their batch sizes, replay time, and blocks
	// skipped on resume. Nil disables it.
	Metrics *telemetry.Engine
	// FS overrides the filesystem the checkpoint reads and writes; nil
	// means the real OS filesystem. Tests inject failing filesystems here
	// to prove the degraded write paths without a real full disk.
	FS FS
	// OnDegrade, when non-nil, is called exactly once if a mid-run write
	// failure (ENOSPC, I/O error) permanently disables checkpointing for
	// this session — the run continues without durability. The callback
	// runs with the checkpoint's internal lock held and must not call back
	// into the Checkpoint.
	OnDegrade func(error)
}

// doneInfo is the journal's claim about one completed block's frame and,
// once the level's log has been read and the frame verified against it, the
// block's cliques. A block finished in this session has neither: its cliques
// are in its caller's memory.
type doneInfo struct {
	off, length int // the frame's place in its level's log
	count       int
	digest      uint32
	verified    bool
	cliques     family.Window
}

// commitItem is one record on its way to the committer. A recDone travels
// with its block's log frame; a barrier with the channel the committer closes
// once the record, and everything handed over before it, is durable.
type commitItem struct {
	rec   rec
	frame []byte
	ack   chan struct{}
}

// Checkpoint is the durable state of one enumeration run: a write-ahead
// journal plus one append-only result log per recursion level, all inside a
// single directory. It implements BatchObserver, so it can be handed
// directly to a checkpoint-aware executor.
//
// All methods are safe for concurrent use. Observer calls only hand records
// to the committer goroutine, which alone writes the files; EndLevel,
// FinishRun and Close wait for it to drain, and Close for it to exit.
type Checkpoint struct {
	dir       string
	met       *telemetry.Engine
	fs        FS
	onDegrade func(error)

	queue   chan commitItem
	quit    chan struct{} // closed by Close: commit what is queued and exit
	stopped chan struct{} // closed by the committer as it exits

	// The committer's own: nobody else touches these once it runs.
	j        *journal
	log      File // the level log being appended to, nil before the first frame
	logLevel int
	logOff   int         // where log's next frame starts
	logEnd   map[int]int // level → end of the last frame the journal claims
	batch    []byte      // the frames of the batch being committed, back to back

	mu         sync.Mutex
	closed     bool
	degraded   bool  // checkpointing disabled after a write failure
	degradeErr error // the failure that disabled it
	resumed    bool
	runEnded   bool
	levels     map[int]int  // level → planned block count
	levelEnded map[int]bool // level → every block done
	levelRead  map[int]bool // level → its log has been read back
	dispatched map[BlockID]bool
	done       map[BlockID]doneInfo
	skipped    int64 // done blocks served from the logs this session
	restored   int64 // dispatched-but-not-done blocks re-enqueued this session
}

const (
	journalName = "journal.mcej"
	// A commit takes what has been handed over once that is maxBatchBytes of
	// frames or its first item has waited maxBatchAge: the age is what a
	// crash can lose beyond the blocks in flight, the size what the committer
	// holds in memory.
	maxBatchBytes = 256 << 10
	maxBatchAge   = 2 * time.Millisecond
	// queueLen holds what a worker pool finishes during one commit's two
	// fsyncs (milliseconds each on a disk); a full queue blocks the hand-over,
	// which bounds the frames waiting in memory.
	queueLen = 1024
)

// JournalPath returns the journal file path inside a checkpoint directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// logPath names the result log of one recursion level.
func (c *Checkpoint) logPath(level int) string {
	return filepath.Join(c.dir, fmt.Sprintf("L%03d.mcel", level))
}

// HasJournal reports whether dir contains a run journal (of any state).
func HasJournal(dir string) bool {
	st, err := os.Stat(JournalPath(dir))
	return err == nil && !st.IsDir()
}

// InsideCheckpoint reports whether dir is a run checkpoint's directory or
// lies inside one. What a checkpoint holds is resume state, not the run's
// answer: each block's cliques are logged in its recursion level's local
// vertex-ID space, before the parent level's Lemma 1 filter, and only the
// resume replay (translate + filter on the way back up) turns them into the
// final clique family. Serving-side consumers must refuse to compile them.
func InsideCheckpoint(dir string) bool {
	for dir = filepath.Clean(dir); !HasJournal(dir); dir = filepath.Dir(dir) {
		if dir == filepath.Dir(dir) {
			return false
		}
	}
	return true
}

// Open attaches to the checkpoint directory at dir, creating it when
// absent. An existing journal is replayed (its torn tail truncated) and its
// identity checked against id — ErrIdentityMismatch (wrapped) refuses a
// resume across a changed graph or changed plan-affecting options, and a
// version-1 checkpoint (a version-1 journal, or a segments directory) is
// refused by name. On success the checkpoint is ready to journal a run:
// fresh directories get a run-begin record, resumed ones a resume record.
func Open(dir string, id Identity, opts Options) (*Checkpoint, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if f, err := fs.Open(filepath.Join(dir, "segments")); err == nil {
		f.Close()
		return nil, fmt.Errorf("runlog: %s holds a segments directory: %s", dir, version1Refusal)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: create checkpoint dir: %w", err)
	}
	path := JournalPath(dir)
	start := time.Now()
	recs, validOff, err := replayJournal(fs, path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{
		dir:        dir,
		met:        opts.Metrics,
		fs:         fs,
		onDegrade:  opts.OnDegrade,
		queue:      make(chan commitItem, queueLen),
		quit:       make(chan struct{}),
		stopped:    make(chan struct{}),
		logEnd:     make(map[int]int),
		levels:     make(map[int]int),
		levelEnded: make(map[int]bool),
		levelRead:  make(map[int]bool),
		dispatched: make(map[BlockID]bool),
		done:       make(map[BlockID]doneInfo),
	}
	if err := c.restore(recs, id); err != nil {
		return nil, err
	}
	if c.met != nil {
		c.met.CheckpointReplayNs.Add(int64(time.Since(start)))
	}
	j, err := openJournalForAppend(fs, path, validOff, opts.Metrics)
	if err != nil {
		return nil, err
	}
	c.j = j
	first := &rec{kind: recRunBegin, graph: id.Graph, opts: id.Options}
	if c.resumed {
		first.kind = recResume
	}
	j.add(first)
	if err := j.flush(); err != nil {
		j.close()
		return nil, err
	}
	go c.commitLoop()
	return c, nil
}

// restore rebuilds the in-memory state machine from replayed records.
func (c *Checkpoint) restore(recs []rec, id Identity) error {
	for i := range recs {
		r := &recs[i]
		switch r.kind {
		case recRunBegin, recResume:
			if r.graph != id.Graph || r.opts != id.Options {
				what := "options"
				if r.graph != id.Graph {
					what = "graph"
				}
				return fmt.Errorf("%w: journaled %s digest %#x, this run has %#x — pass a fresh -checkpoint directory to start over",
					ErrIdentityMismatch, what,
					pick(r.graph != id.Graph, r.graph, r.opts),
					pick(r.graph != id.Graph, id.Graph, id.Options))
			}
			if i > 0 || r.kind == recResume {
				c.resumed = true
			}
		case recLevel:
			c.levels[r.level] = r.blocks
		case recDispatch:
			c.dispatched[BlockID{r.level, r.plan}] = true
		case recDone:
			// The last record of a block wins: a later one is the
			// re-execution of a frame that no longer verified.
			c.done[BlockID{r.level, r.plan}] = doneInfo{off: r.off, length: r.length, count: r.count, digest: r.digest}
			c.logEnd[r.level] = max(c.logEnd[r.level], r.off+r.length)
		case recLevelEnd:
			c.levelEnded[r.level] = true
		case recRunEnd:
			c.runEnded = true
		}
	}
	if len(recs) > 0 {
		c.resumed = true
	}
	return nil
}

// pick is a tiny ternary for the mismatch error message.
func pick(cond bool, a, b uint64) uint64 {
	if cond {
		return a
	}
	return b
}

// degrade permanently disables checkpointing for this session after a
// write failure: the run continues, every later observer call becomes a
// no-op, and the journal keeps its durable prefix — the next resume simply
// starts from the last record that made it to disk.
func (c *Checkpoint) degrade(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.degraded {
		return
	}
	c.degraded = true
	c.degradeErr = err
	if c.met != nil {
		c.met.CheckpointDegraded.Set(1)
	}
	if c.onDegrade != nil {
		c.onDegrade(err)
	}
}

// Degraded reports whether a write failure disabled checkpointing mid-run.
// The committer finds such a failure, so the answer is current as of the
// last barrier (EndLevel, FinishRun, Close).
func (c *Checkpoint) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// DegradeError returns the write failure that disabled checkpointing, or
// nil when the checkpoint is healthy.
func (c *Checkpoint) DegradeError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degradeErr
}

// disabled reports whether mutating observer calls should no-op: after a
// degrade, or after Close (a straggler's late BlockDone may arrive once the
// batch has already returned and the caller released the checkpoint).
// Callers hold c.mu.
func (c *Checkpoint) disabled() bool { return c.degraded || c.closed }

// Resumed reports whether the directory held prior run state at Open.
func (c *Checkpoint) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Completed reports whether the journal records a finished run.
func (c *Checkpoint) Completed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runEnded
}

// SkippedBlocks reports how many journaled-done blocks this session served
// from the level logs instead of re-analysing.
func (c *Checkpoint) SkippedBlocks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// ReenqueuedBlocks reports how many journaled-dispatched-but-not-done
// blocks this session found on resume — work that was in flight when the
// previous coordinator died and is re-enqueued.
func (c *Checkpoint) ReenqueuedBlocks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restored
}

// hand queues one item for the committer; once the committer has exited
// (Close) the item is dropped.
func (c *Checkpoint) hand(it commitItem) {
	select {
	case c.queue <- it:
	case <-c.stopped:
	}
}

// drain hands r over as a barrier: it returns once r and everything handed
// over before it is durable — or was dropped, by a degrade or by Close.
func (c *Checkpoint) drain(r rec) {
	start := time.Now()
	it := commitItem{rec: r, ack: make(chan struct{})}
	c.hand(it)
	select {
	case <-it.ack:
	case <-c.stopped:
	}
	if c.met != nil {
		c.met.CheckpointBarrierWaitNs.Add(int64(time.Since(start)))
	}
}

// commitLoop is the committer: it gathers what is handed over into a batch
// until the batch is maxBatchBytes of frames, its first item maxBatchAge old,
// or a barrier arrives, and commits it. On Close it commits what is queued
// and exits.
func (c *Checkpoint) commitLoop() {
	defer close(c.stopped)
	var items []commitItem
	failed := false // a degraded session writes nothing more
	for quit := false; !quit; {
		items = items[:0]
		select {
		case it := <-c.queue:
			items = append(items, it)
			age := time.NewTimer(maxBatchAge)
			for size := len(it.frame); it.ack == nil && size < maxBatchBytes; {
				select {
				case it = <-c.queue:
					items = append(items, it)
					size += len(it.frame)
				case <-age.C:
					size = maxBatchBytes // old enough: commit what there is
				}
			}
			age.Stop()
		case <-c.quit:
			for quit = true; len(c.queue) > 0; {
				items = append(items, <-c.queue)
			}
		}
		if !failed {
			if err := c.commit(items); err != nil {
				failed = true
				c.degrade(err)
			}
		}
		for i := range items {
			if items[i].ack != nil {
				close(items[i].ack)
			}
			items[i] = commitItem{} // the frame is on disk (or lost): let it go
		}
	}
	if c.log != nil {
		c.log.Close()
	}
}

// commit makes one batch durable, in the order the contract needs: the
// frames into their level's log and one fsync, then the records — each
// recDone now carrying where its frame went — into the journal and one
// fsync. A crash between the two leaves frames no record claims, which the
// next session cuts off.
func (c *Checkpoint) commit(items []commitItem) error {
	var blocks, logged int64
	for i := range items {
		it := &items[i]
		if it.frame != nil {
			if c.log == nil || c.logLevel != it.rec.level {
				if err := c.openLog(it.rec.level); err != nil {
					return err
				}
			}
			it.rec.off, it.rec.length = c.logOff+len(c.batch), len(it.frame)
			c.batch = append(c.batch, it.frame...)
			blocks++
			logged += int64(len(it.frame))
		}
		c.j.add(&it.rec)
	}
	if err := c.flushLog(); err != nil {
		return err
	}
	if err := c.j.flush(); err != nil {
		return err
	}
	if c.met != nil && blocks > 0 {
		c.met.CheckpointCommits.Inc()
		c.met.CheckpointCommitBlocks.Add(blocks)
		c.met.CheckpointLogBytes.Add(logged)
	}
	return nil
}

// flushLog appends the gathered frames to the open level log in one write
// and fsyncs it.
func (c *Checkpoint) flushLog() error {
	if len(c.batch) == 0 {
		return nil
	}
	_, err := c.log.Write(c.batch)
	if err == nil {
		err = c.log.Sync()
	}
	if err != nil {
		return fmt.Errorf("runlog: append to %s: %w", c.logPath(c.logLevel), err)
	}
	c.logOff += len(c.batch)
	c.logEnd[c.logLevel] = c.logOff
	if c.batch = c.batch[:0]; cap(c.batch) > 2*maxBatchBytes {
		c.batch = nil // one huge block (a terminal core) should not pin its size
	}
	return nil
}

// openLog makes level's log the one being appended to, after flushing the
// one that was. The log is cut (or, had it lost its tail, padded with zeros
// no claim verifies against) to where the journal says it ends: past that
// are frames whose records a crash kept from the journal, or a torn one.
func (c *Checkpoint) openLog(level int) error {
	if c.log != nil {
		err := c.flushLog()
		if cerr := c.log.Close(); err == nil {
			err = cerr
		}
		if c.log = nil; err != nil {
			return err
		}
	}
	end := int64(c.logEnd[level])
	f, err := c.fs.OpenFile(c.logPath(level), os.O_RDWR|os.O_CREATE, 0o644)
	if err == nil {
		if err = f.Truncate(end); err == nil {
			_, err = f.Seek(end, io.SeekStart)
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("runlog: open level log: %w", err)
	}
	c.log, c.logLevel, c.logOff = f, level, int(end)
	return nil
}

// BeginLevel journals one recursion level's block plan. A resumed journal
// that planned a different block count for the same level is refused — the
// plan is deterministic in (graph, options), so a mismatch means the
// checkpoint does not belong to this run despite its identity record.
func (c *Checkpoint) BeginLevel(level, blocks int) error {
	c.mu.Lock()
	prev, planned := c.levels[level]
	if !planned {
		c.levels[level] = blocks
	}
	skip := planned || c.disabled()
	c.mu.Unlock()
	if planned && prev != blocks {
		return fmt.Errorf("%w: level %d planned %d blocks, journal recorded %d",
			ErrIdentityMismatch, level, blocks, prev)
	}
	if !skip {
		c.hand(commitItem{rec: rec{kind: recLevel, level: level, blocks: blocks}})
	}
	return nil
}

// DoneCliques returns the cliques of a block an earlier session completed,
// read back from its level's log and verified against the journal; every
// block of a level is a window of one family, filled by the first call for
// the level. ok is false when the block is not done, or when its frame is
// missing, cut short, or disagrees with the journal's length, count or
// digest — then the done claim is dropped so the caller re-executes the
// block, whose frame is appended again and whose new record supersedes the
// old.
func (c *Checkpoint) DoneCliques(id BlockID) (cliques family.Window, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.levelRead[id.Level] {
		c.levelRead[id.Level] = true
		c.readLevel(id.Level)
	}
	info, isDone := c.done[id]
	if !isDone && c.dispatched[id] {
		c.restored++
	}
	if !info.verified {
		return family.Window{}, false
	}
	c.skipped++
	if c.met != nil {
		c.met.CheckpointBlocksSkipped.Inc()
	}
	return info.cliques, true
}

// readLevel reads level's log, once and whole, and decodes every frame a
// done record claims into one family. A claim is dropped unless the bytes it
// points at are one intact frame of the claimed length whose payload is the
// claimed digest and count of ascending runs. Callers hold c.mu.
func (c *Checkpoint) readLevel(level int) {
	var log []byte
	if f, err := c.fs.Open(c.logPath(level)); err == nil {
		log, _ = io.ReadAll(f) // a log cut short by a read error verifies as far as it goes
		f.Close()
	}
	var (
		src    bytes.Reader
		frames = durable.NewFrameReader(&src, math.MaxUint32)
		fam    = new(family.Family)
		clique []int32
	)
	for id, info := range c.done {
		if id.Level != level || info.length == 0 { // a block finished this session has no frame to read
			continue
		}
		first, ok := fam.Len(), info.off+info.length <= len(log)
		if ok {
			src.Reset(log[info.off : info.off+info.length])
			payload, err := frames.Next()
			count, n := binary.Uvarint(payload)
			ok = err == nil && src.Len() == 0 && n > 0 && count == uint64(info.count) && crc32.ChecksumIEEE(payload) == info.digest
			for payload = payload[max(n, 0):]; ok && count > 0; count-- {
				clique, payload, err = durable.DecodeAscending(clique[:0], payload, 1<<31)
				if ok = err == nil; ok {
					fam.Append(clique)
				}
			}
			ok = ok && len(payload) == 0
		}
		if !ok {
			fam.Truncate(first)
			delete(c.done, id)
			continue
		}
		info.verified, info.cliques = true, family.Window{F: fam, First: first, Count: info.count}
		c.done[id] = info
	}
}

// encodeFrame lays a block's cliques out as one log frame — uvarint count,
// then each clique as an ascending run — and returns it with the CRC-32 of
// that payload, the digest its done record carries.
func encodeFrame(cliques family.Window) (frame []byte, digest uint32, err error) {
	payload := binary.AppendUvarint(make([]byte, 0, 64), uint64(cliques.Count))
	for i := 0; i < cliques.Count; i++ {
		if payload, err = durable.AppendAscending(payload, cliques.At(i)); err != nil {
			return nil, 0, fmt.Errorf("runlog: clique %d of the block: %w", i, err)
		}
	}
	if len(payload) > math.MaxUint32 {
		return nil, 0, fmt.Errorf("runlog: a block of %d cliques encodes to %d bytes, past the 4 GiB a frame holds", cliques.Count, len(payload))
	}
	frame = durable.AppendFrame(make([]byte, 0, durable.FrameHeaderLen+len(payload)), payload)
	return frame, crc32.ChecksumIEEE(payload), nil
}

// BlockDispatched journals that a block was handed to an executor. It
// implements BatchObserver. The record rides the next commit: it tells a
// later session only what was in flight, so it is worth no fsync of its own.
func (c *Checkpoint) BlockDispatched(id BlockID) {
	c.mu.Lock()
	_, isDone := c.done[id]
	skip := isDone || c.dispatched[id] || c.disabled()
	c.dispatched[id] = true
	c.mu.Unlock()
	if !skip {
		c.hand(commitItem{rec: rec{kind: recDispatch, level: id.Level, plan: id.Plan}})
	}
}

// BlockDone hands one block's result to the committer: the cliques are
// encoded into a log frame here, on the goroutine that finished the block
// and off the lock, and the committer appends the frame to the level's log
// and then journals the done record. The block is durable when the next
// barrier returns, or maxBatchAge later, whichever is first; a block
// re-executed after a crash is appended again and its new record wins, which
// is what makes retries and resumes idempotent. It implements BatchObserver.
//
// A write failure (ENOSPC, I/O error) never fails the batch: the
// checkpoint degrades — checkpointing is disabled for the rest of the
// session and the run continues on its in-memory results. The journal's
// durable prefix stays intact, so a later resume replays to the last block
// that actually hit the disk.
func (c *Checkpoint) BlockDone(id BlockID, cliques family.Window) error {
	c.mu.Lock()
	_, skip := c.done[id]
	if skip = skip || c.disabled(); !skip {
		c.done[id] = doneInfo{} // claimed: a second completion of the block is dropped
	}
	c.mu.Unlock()
	if skip {
		return nil
	}
	frame, digest, err := encodeFrame(cliques)
	if err != nil {
		c.degrade(err)
		return nil
	}
	c.hand(commitItem{frame: frame, rec: rec{kind: recDone, level: id.Level, plan: id.Plan, count: cliques.Count, digest: digest}})
	return nil
}

// EndLevel journals that every block of a level is done, and returns once
// every block handed over so far is durable.
func (c *Checkpoint) EndLevel(level int) error {
	c.mu.Lock()
	skip := c.levelEnded[level] || c.disabled()
	c.levelEnded[level] = true
	c.mu.Unlock()
	if !skip {
		c.drain(rec{kind: recLevelEnd, level: level})
	}
	return nil
}

// FinishRun journals run completion, durably. A journal carrying this record
// resumes straight from the level logs: every block loads as done.
func (c *Checkpoint) FinishRun() error {
	c.mu.Lock()
	skip := c.runEnded || c.disabled()
	if !skip {
		c.runEnded = true
	}
	c.mu.Unlock()
	if !skip {
		c.drain(rec{kind: recRunEnd})
	}
	return nil
}

// Close commits what has been handed over, stops the committer, waits for it
// to exit and releases the files. The checkpoint directory remains valid for
// a later Open.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	c.mu.Unlock()
	if !first {
		return nil
	}
	close(c.quit)
	<-c.stopped
	if err := c.j.close(); err != nil && !c.Degraded() {
		return err // a degraded session's failure was reported through OnDegrade already
	}
	return nil
}
