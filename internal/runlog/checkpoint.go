package runlog

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mce/internal/cliqstore"
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

// GraphDigest fingerprints a graph: FNV-64a over the node count and every
// adjacency list. Two graphs with the same digest are, for checkpointing
// purposes, the same input.
func GraphDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeU64(uint64(g.N()))
	for v := int32(0); v < int32(g.N()); v++ {
		adj := g.Neighbors(v)
		writeU64(uint64(len(adj)))
		for _, u := range adj {
			writeU64(uint64(uint32(u)))
		}
	}
	return h.Sum64()
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
// It names the block's journal records and its result segment, so a block
// retried, re-dispatched, or resumed in a later session always lands in the
// same place — the mechanism that makes re-execution idempotent.
type BlockID struct {
	Level int
	Plan  int
}

// BatchObserver receives per-block lifecycle callbacks from an executor as
// a batch runs, so completions are durable the moment they happen rather
// than when the whole batch returns. Implementations must tolerate
// concurrent calls. BlockDone returning an error aborts the batch.
type BatchObserver interface {
	BlockDispatched(id BlockID)
	BlockDone(id BlockID, cliques family.Window) error
}

// ErrIdentityMismatch reports a checkpoint directory that belongs to a
// different run. It is wrapped with the differing digests.
var ErrIdentityMismatch = errors.New("runlog: checkpoint belongs to a different run")

// Options tunes a Checkpoint.
type Options struct {
	// NoSync disables fsync on journal appends and segment writes. Only
	// for tests: without sync, a crash can lose records the journal
	// claimed durable.
	NoSync bool
	// Metrics, when non-nil, receives checkpoint telemetry: records and
	// bytes appended, replay time, and blocks skipped on resume. Nil
	// disables it.
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

// doneInfo is the journal's claim about one completed block.
type doneInfo struct {
	count  int
	digest uint32
}

// Checkpoint is the durable state of one enumeration run: a write-ahead
// journal plus one clique segment per completed block, all inside a single
// directory. It implements BatchObserver, so it can be handed directly to
// a checkpoint-aware executor.
//
// All methods are safe for concurrent use; segment and journal writes are
// serialised internally.
type Checkpoint struct {
	dir       string
	id        Identity
	met       *telemetry.Engine
	fs        FS
	onDegrade func(error)

	mu         sync.Mutex
	j          *journal
	degraded   bool  // checkpointing disabled after a write failure
	degradeErr error // the failure that disabled it
	resumed    bool
	runEnded   bool
	levels     map[int]int  // level → planned block count
	levelEnded map[int]bool // level → every block done
	dispatched map[BlockID]bool
	done       map[BlockID]doneInfo
	skipped    int64 // done blocks served from segments this session
	restored   int64 // dispatched-but-not-done blocks re-enqueued this session
}

// journalName and segmentsDir fix the on-disk layout of a checkpoint
// directory.
const (
	journalName = "journal.mcej"
	segmentsDir = "segments"
)

// JournalPath returns the journal file path inside a checkpoint directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// HasJournal reports whether dir contains a run journal (of any state).
func HasJournal(dir string) bool {
	st, err := os.Stat(JournalPath(dir))
	return err == nil && !st.IsDir()
}

// IsCheckpointSegmentDir reports whether dir is the segment directory of a
// run checkpoint — a "segments" directory with the run journal beside it.
// Those segments are resume state, not the run's answer: each block's
// cliques are journaled in its recursion level's local vertex-ID space,
// before the parent level's Lemma 1 filter, and only the resume replay
// (translate + filter on the way back up) turns them into the final clique
// family. Serving-side consumers must refuse to compile them directly.
func IsCheckpointSegmentDir(dir string) bool {
	dir = filepath.Clean(dir)
	return filepath.Base(dir) == segmentsDir && HasJournal(filepath.Dir(dir))
}

// Open attaches to the checkpoint directory at dir, creating it when
// absent. An existing journal is replayed (its torn tail truncated) and its
// identity checked against id — ErrIdentityMismatch (wrapped) refuses a
// resume across a changed graph or changed plan-affecting options. On
// success the checkpoint is ready to journal a run: fresh directories get a
// run-begin record, resumed ones a resume record.
func Open(dir string, id Identity, opts Options) (*Checkpoint, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if opts.NoSync {
		fs = noSyncFS{fs}
	}
	if err := fs.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
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
		id:         id,
		met:        opts.Metrics,
		fs:         fs,
		onDegrade:  opts.OnDegrade,
		levels:     make(map[int]int),
		levelEnded: make(map[int]bool),
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
	if err := j.append(first); err != nil {
		j.close()
		return nil, err
	}
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
			c.done[BlockID{r.level, r.plan}] = doneInfo{count: r.count, digest: r.digest}
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
// starts from the last record that made it to disk. Callers hold c.mu.
func (c *Checkpoint) degrade(err error) {
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
func (c *Checkpoint) disabled() bool { return c.degraded || c.j == nil }

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
// from segments instead of re-analysing.
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

// BeginLevel journals one recursion level's block plan. A resumed journal
// that planned a different block count for the same level is refused — the
// plan is deterministic in (graph, options), so a mismatch means the
// checkpoint does not belong to this run despite its identity record.
func (c *Checkpoint) BeginLevel(level, blocks int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.levels[level]; ok {
		if prev != blocks {
			return fmt.Errorf("%w: level %d planned %d blocks, journal recorded %d",
				ErrIdentityMismatch, level, blocks, prev)
		}
		return nil
	}
	c.levels[level] = blocks
	if c.disabled() {
		return nil
	}
	if err := c.j.append(&rec{kind: recLevel, level: level, blocks: blocks}); err != nil {
		c.degrade(err)
	}
	return nil
}

// DoneCliques appends the journaled result of a completed block, loaded and
// verified from its segment, to dst and returns the window over it. ok is
// false, and dst as it was, when the block is not done, or when its segment
// is missing, truncated, or disagrees with the journal's count/digest — in
// that case the done claim is dropped so the caller re-executes the block
// (the segment overwrite makes that safe).
func (c *Checkpoint) DoneCliques(id BlockID, dst *family.Family) (cliques family.Window, ok bool) {
	c.mu.Lock()
	info, isDone := c.done[id]
	if !isDone {
		if c.dispatched[id] {
			c.restored++
		}
		c.mu.Unlock()
		return family.Window{}, false
	}
	c.mu.Unlock()

	first := dst.Len()
	err := c.loadSegment(id, info, dst)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// Self-heal: the journal says done but the bytes disagree.
		// Dropping the claim re-executes the block, whose segment write
		// overwrites the bad file.
		dst.Truncate(first)
		delete(c.done, id)
		return family.Window{}, false
	}
	c.skipped++
	if c.met != nil {
		c.met.CheckpointBlocksSkipped.Inc()
	}
	return family.Window{F: dst, First: first, Count: dst.Len() - first}, true
}

// segmentPath names a block's result segment by its stable identity.
func (c *Checkpoint) segmentPath(id BlockID) string {
	return filepath.Join(c.dir, segmentsDir, fmt.Sprintf("L%03d-B%06d.cliq", id.Level, id.Plan))
}

// loadSegment reads one segment into dst and verifies it against the
// journal claim.
func (c *Checkpoint) loadSegment(id BlockID, info doneInfo, dst *family.Family) error {
	f, err := c.fs.Open(c.segmentPath(id))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := cliqstore.NewReader(f)
	if err != nil {
		return err
	}
	if err := r.ForEach(func(cl []int32) error {
		dst.Append(cl)
		return nil
	}); err != nil {
		return err
	}
	if r.Count() != int64(info.count) || r.Digest() != info.digest {
		return fmt.Errorf("runlog: segment %s holds %d cliques digest %#x, journal claims %d/%#x",
			c.segmentPath(id), r.Count(), r.Digest(), info.count, info.digest)
	}
	return nil
}

// BlockDispatched journals that a block was handed to an executor. It
// implements BatchObserver; append failures surface on the subsequent
// BlockDone (the journal stays failed), so dispatch stays fire-and-forget
// for executors.
func (c *Checkpoint) BlockDispatched(id BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, isDone := c.done[id]; isDone || c.dispatched[id] {
		return
	}
	c.dispatched[id] = true
	if c.disabled() {
		return
	}
	if err := c.j.append(&rec{kind: recDispatch, level: id.Level, plan: id.Plan}); err != nil {
		c.degrade(err)
	}
}

// BlockDone makes one block's result durable: the cliques are written to
// the block's segment (durable.AtomicReplace, so a crash never leaves a half
// segment under the live name), then the done record is journaled.
// A block re-executed after a crash simply overwrites its segment, which
// is what makes retries and resumes idempotent. It implements
// BatchObserver.
//
// A write failure (ENOSPC, I/O error) never fails the batch: the
// checkpoint degrades — checkpointing is disabled for the rest of the
// session and the run continues on its in-memory results. The journal's
// durable prefix stays intact, so a later resume replays to the last block
// that actually hit the disk.
func (c *Checkpoint) BlockDone(id BlockID, cliques family.Window) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, already := c.done[id]; already {
		return nil
	}
	if c.disabled() {
		return nil
	}
	digest, count, err := c.writeSegment(id, cliques)
	if err != nil {
		c.degrade(err)
		return nil
	}
	if err := c.j.append(&rec{kind: recDone, level: id.Level, plan: id.Plan, count: count, digest: digest}); err != nil {
		c.degrade(err)
		return nil
	}
	c.done[id] = doneInfo{count: count, digest: digest}
	return nil
}

// writeSegment persists one block's cliques atomically. Callers hold c.mu.
func (c *Checkpoint) writeSegment(id BlockID, cliques family.Window) (digest uint32, count int, err error) {
	final := c.segmentPath(id)
	err = durable.AtomicReplace(c.fs, final, func(w io.Writer) error {
		sw, err := cliqstore.NewWriter(w)
		if err != nil {
			return err
		}
		for i := 0; i < cliques.Count; i++ {
			if err := sw.Write(cliques.At(i)); err != nil {
				return err
			}
		}
		digest = sw.Digest()
		return sw.Finish()
	})
	if err != nil {
		return 0, 0, fmt.Errorf("runlog: segment %s: %w", final, err)
	}
	return digest, cliques.Count, nil
}

// EndLevel journals that every block of a level is done.
func (c *Checkpoint) EndLevel(level int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.levelEnded[level] {
		return nil
	}
	c.levelEnded[level] = true
	if c.disabled() {
		return nil
	}
	if err := c.j.append(&rec{kind: recLevelEnd, level: level}); err != nil {
		c.degrade(err)
	}
	return nil
}

// FinishRun journals run completion. A journal carrying this record resumes
// straight from segments: every block loads as done.
func (c *Checkpoint) FinishRun() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runEnded {
		return nil
	}
	if c.disabled() {
		return nil
	}
	c.runEnded = true
	if err := c.j.append(&rec{kind: recRunEnd}); err != nil {
		c.degrade(err)
	}
	return nil
}

// Close releases the journal file. The checkpoint directory remains valid
// for a later Open.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.j == nil {
		return nil
	}
	err := c.j.close()
	c.j = nil
	if c.degraded {
		// The failure was already reported through OnDegrade; a degraded
		// close is clean by definition.
		return nil
	}
	return err
}
