package runlog

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mce/internal/durable"
	"mce/internal/family"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

var testID = Identity{Graph: 0xfeedbeef, Options: 0xcafe}

func openTest(t *testing.T, dir string, id Identity) *Checkpoint {
	t.Helper()
	c, err := Open(dir, id, Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFreshCheckpoint pins the empty-journal path: a brand-new directory
// (and an Open of a directory whose journal holds only this session's
// run-begin record) is not a resume.
func TestFreshCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	if c.Resumed() {
		t.Fatal("fresh checkpoint reported as resumed")
	}
	if _, ok := doneCliques(c, BlockID{0, 0}); ok {
		t.Fatal("fresh checkpoint claims a done block")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyJournalFile pins that a zero-byte journal file (created, never
// written — e.g. a crash before the header was flushed) opens as a fresh
// run rather than erroring.
func TestEmptyJournalFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(JournalPath(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTest(t, dir, testID)
	defer c.Close()
	if c.Resumed() {
		t.Fatal("empty journal file reported as resumed")
	}
}

// TestResumeRoundTrip drives a two-level run to the middle, reopens the
// directory, and checks the journal hands back exactly the completed work.
func TestResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	cl0 := [][]int32{{1, 2, 3}, {4, 7}}
	cl1 := [][]int32{{0, 9}}
	for p := 0; p < 3; p++ {
		c.BlockDispatched(BlockID{0, p}, member(BlockID{0, p}))
	}
	if err := blockDone(c, BlockID{0, 0}, cl0); err != nil {
		t.Fatal(err)
	}
	if err := blockDone(c, BlockID{0, 1}, cl1); err != nil {
		t.Fatal(err)
	}
	// Block {0,2} stays dispatched-but-not-done: the "crash".
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	met := telemetry.NewEngine()
	r, err := Open(dir, testID, Options{FS: faultfs.Unsynced(nil), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Resumed() {
		t.Fatal("reopened checkpoint not reported as resumed")
	}
	got, ok := doneCliques(r, BlockID{0, 0})
	if !ok || !reflect.DeepEqual(got, cl0) {
		t.Fatalf("block {0,0}: ok=%v got %v want %v", ok, got, cl0)
	}
	if got, ok := doneCliques(r, BlockID{0, 1}); !ok || !reflect.DeepEqual(got, cl1) {
		t.Fatalf("block {0,1}: ok=%v got %v", ok, got)
	}
	if _, ok := doneCliques(r, BlockID{0, 2}); ok {
		t.Fatal("in-flight block {0,2} resumed as done")
	}
	if n := r.SkippedBlocks(); n != 2 {
		t.Fatalf("SkippedBlocks = %d, want 2", n)
	}
	if n := r.ReenqueuedBlocks(); n != 1 {
		t.Fatalf("ReenqueuedBlocks = %d, want 1", n)
	}
	if n := met.Snapshot().CheckpointBlocksSkipped; n != 2 {
		t.Fatalf("telemetry skipped counter = %d, want 2", n)
	}
}

// TestResumeAfterResume pins that a journal already carrying a resume
// record resumes again cleanly — each session appends its own identity
// record and the done-set keeps accumulating.
func TestResumeAfterResume(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	if err := blockDone(c, BlockID{0, 0}, [][]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2 := openTest(t, dir, testID)
	if !c2.Resumed() {
		t.Fatal("first resume not detected")
	}
	if err := blockDone(c2, BlockID{0, 1}, [][]int32{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	c3 := openTest(t, dir, testID)
	defer c3.Close()
	if !c3.Resumed() {
		t.Fatal("second resume not detected")
	}
	for plan := 0; plan < 2; plan++ {
		if _, ok := doneCliques(c3, BlockID{0, plan}); !ok {
			t.Fatalf("block {0,%d} lost across double resume", plan)
		}
	}
}

// TestIdentityMismatch pins the refusal path: resuming with a different
// graph or different plan-affecting options must fail with
// ErrIdentityMismatch and a message naming the problem.
func TestIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	openTest(t, dir, testID).Close()

	for _, bad := range []Identity{
		{Graph: testID.Graph + 1, Options: testID.Options},
		{Graph: testID.Graph, Options: testID.Options + 1},
	} {
		if _, err := Open(dir, bad, Options{FS: faultfs.Unsynced(nil)}); !errors.Is(err, ErrIdentityMismatch) {
			t.Fatalf("Open with identity %+v: err %v, want ErrIdentityMismatch", bad, err)
		}
	}
}

// TestBlockPlanMismatch pins the second identity guard: a resumed level
// whose deterministic plan changed is refused at its seal even though the
// identity digests matched — whether its size changed, or only its plan
// digest (one membership flipped, same block count).
func TestBlockPlanMismatch(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	c.SealLevel(0, 4, 0xabc)
	c.Close()

	r := openTest(t, dir, testID)
	defer r.Close()
	if err := r.SealLevel(0, 5, 0xabc); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("SealLevel with changed plan size: err %v, want ErrIdentityMismatch", err)
	}
	if err := r.SealLevel(0, 4, 0xabd); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("SealLevel with changed plan digest: err %v, want ErrIdentityMismatch", err)
	}
	if err := r.SealLevel(0, 4, 0xabc); err != nil {
		t.Fatalf("SealLevel with the journaled plan: %v", err)
	}
}

// TestServedLevel pins when a resume may skip planning a level: only when
// the journal sealed it and every block of the plan is done with a frame
// that verifies — not for an unsealed level, a level with a block still
// missing, or one whose frame was damaged, and never for a level sealed in
// this session.
func TestServedLevel(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	if _, ok := c.ServedLevel(0); ok {
		t.Fatal("a fresh checkpoint serves level 0")
	}
	for _, b := range []struct {
		id      BlockID
		cliques [][]int32
	}{
		{BlockID{0, 0}, [][]int32{{1, 2}}}, {BlockID{0, 1}, nil},
		{BlockID{1, 1}, [][]int32{{3, 4}}},
		{BlockID{2, 0}, [][]int32{{5, 6, 7}}},
		{BlockID{3, 0}, [][]int32{{8, 9}}},
	} {
		if err := blockDone(c, b.id, b.cliques); err != nil {
			t.Fatal(err)
		}
	}
	c.SealLevel(0, 2, 7)
	c.SealLevel(1, 2, 8)
	c.SealLevel(2, 1, 9)
	if _, ok := c.ServedLevel(0); ok {
		t.Fatal("a level done and sealed in this session is served")
	}
	c.Close()

	// Damage level 2's one frame.
	path := filepath.Join(dir, "L002.mcel")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, testID)
	defer r.Close()
	served, ok := r.ServedLevel(0)
	if !ok || len(served) != 2 {
		t.Fatalf("level 0, sealed whole: ServedLevel = %d blocks, %v; want 2, true", len(served), ok)
	}
	for p, want := range [][][]int32{{{1, 2}}, nil} {
		if got := served[p].Views(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("served block {0,%d}: %v; want %v", p, got, want)
		}
	}
	if n := r.SkippedBlocks(); n != 2 {
		t.Fatalf("SkippedBlocks = %d after serving level 0, want 2", n)
	}
	if _, ok := r.ServedLevel(1); ok {
		t.Fatal("level 1, block 0 never done, is served")
	}
	if _, ok := r.ServedLevel(2); ok {
		t.Fatal("level 2, its frame damaged, is served")
	}
	if _, ok := r.ServedLevel(3); ok {
		t.Fatal("level 3, done but never sealed, is served")
	}
	if _, ok := doneCliques(r, BlockID{3, 0}); !ok {
		t.Fatal("level 3's done block is not served to the executor that takes it")
	}
	// The damaged level is sealed again under its journaled plan.
	if err := r.SealLevel(2, 1, 9); err != nil {
		t.Fatal(err)
	}
}

// TestServedOnlyToItsOwnMembers: a done record is served only to the block
// whose membership digest it carries. A block re-grown at the same plan
// index with other members runs again, and its record supersedes the old
// one for the next session.
func TestServedOnlyToItsOwnMembers(t *testing.T) {
	dir := t.TempDir()
	id := BlockID{0, 0}
	c := openTest(t, dir, testID)
	if err := c.BlockDone(id, 0xaaaa, family.Of([][]int32{{1, 2}}).Window()); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r := openTest(t, dir, testID)
	if _, ok := r.BlockDispatched(id, 0xbbbb); ok {
		t.Fatal("a done record was served to a block with other members")
	}
	if err := r.BlockDone(id, 0xbbbb, family.Of([][]int32{{3, 4}}).Window()); err != nil {
		t.Fatal(err)
	}
	if n := r.SkippedBlocks(); n != 0 {
		t.Fatalf("SkippedBlocks = %d, want 0", n)
	}
	r.Close()

	again := openTest(t, dir, testID)
	defer again.Close()
	w, ok := again.BlockDispatched(id, 0xbbbb)
	if got := w.Views(nil); !ok || !reflect.DeepEqual(got, [][]int32{{3, 4}}) {
		t.Fatalf("the re-run block: ok=%v got %v", ok, got)
	}
}

// TestTornTailTruncated pins WAL recovery: chopping bytes off the journal
// tail loses at most the torn record — replay stops at the last intact
// record and the next session appends from there.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	blockDone(c, BlockID{0, 0}, [][]int32{{1, 2, 3}})
	blockDone(c, BlockID{0, 1}, [][]int32{{5, 6}})
	c.Close()

	path := JournalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way into the final (done {0,1}) record.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, testID)
	defer r.Close()
	if !r.Resumed() {
		t.Fatal("torn journal not resumed")
	}
	if _, ok := doneCliques(r, BlockID{0, 0}); !ok {
		t.Fatal("intact record lost to torn-tail truncation")
	}
	if _, ok := doneCliques(r, BlockID{0, 1}); ok {
		t.Fatal("torn done-record replayed as intact")
	}
	// The torn frame must be gone from disk: the re-opened journal's
	// records all decode.
	recs, _, err := replayJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].kind != recResume {
		t.Fatalf("last record kind %d, want recResume appended after truncation", recs[len(recs)-1].kind)
	}
}

// TestLogCorruptionSelfHeals pins the self-healing contract: a done block
// whose frame no longer verifies — the log cut short of it, or a bit of it
// flipped — is handed back as not-done so the caller re-executes it, rather
// than failing the resume; the re-execution is appended and its record, the
// later of the two, is the one the next session believes.
func TestLogCorruptionSelfHeals(t *testing.T) {
	want := [][]int32{{1, 2, 3}}
	for name, damage := range map[string]func([]byte) []byte{
		"cut":      func(log []byte) []byte { return log[:len(log)-2] },
		"bit-flip": func(log []byte) []byte { log[len(log)-1] ^= 0x10; return log },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := openTest(t, dir, testID)
			if err := blockDone(c, BlockID{0, 0}, [][]int32{{4, 5}}); err != nil {
				t.Fatal(err)
			}
			if err := blockDone(c, BlockID{0, 1}, want); err != nil {
				t.Fatal(err)
			}
			c.Close()

			// Damage the last frame: the journal says done, the bytes disagree.
			logPath := filepath.Join(dir, "L000.mcel")
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath, damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r := openTest(t, dir, testID)
			if _, ok := doneCliques(r, BlockID{0, 1}); ok {
				t.Fatal("damaged frame served as a done block")
			}
			if got, ok := doneCliques(r, BlockID{0, 0}); !ok || !reflect.DeepEqual(got, [][]int32{{4, 5}}) {
				t.Fatalf("the intact frame before it: ok=%v got %v", ok, got)
			}
			// Re-execution appends the block again and it is done again.
			if err := blockDone(r, BlockID{0, 1}, want); err != nil {
				t.Fatal(err)
			}
			r.Close()

			again := openTest(t, dir, testID)
			defer again.Close()
			got, ok := doneCliques(again, BlockID{0, 1})
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("re-executed block: ok=%v got %v", ok, got)
			}
			if n := again.SkippedBlocks(); n != 1 {
				t.Fatalf("SkippedBlocks = %d, want 1", n)
			}
		})
	}
}

// TestRunEndRecorded pins Completed across sessions.
func TestRunEndRecorded(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	if c.Completed() {
		t.Fatal("fresh run reported completed")
	}
	c.FinishRun()
	c.Close()
	r := openTest(t, dir, testID)
	defer r.Close()
	if !r.Completed() {
		t.Fatal("run-end record lost on resume")
	}
}

// TestJournalRecordRoundTrip pins the frame encoding for every record kind.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []rec{
		{kind: recRunBegin, graph: 1, opts: 2},
		{kind: recResume, graph: 1, opts: 2},
		{kind: recLevel, level: 3, blocks: 17, planDigest: 0xfedcba9876543210},
		{kind: recDispatch, level: 3, plan: 9},
		{kind: recDone, level: 3, plan: 9, off: 1 << 33, length: 4096, count: 12345, digest: 0xdeadbeef, member: 1<<64 - 1},
		{kind: recRunEnd},
	}
	for _, r := range recs {
		got, err := decodeRec(r.encode(nil))
		if err != nil {
			t.Fatalf("record %+v: %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
	for name, p := range map[string][]byte{
		"empty":               {},
		"unknown kind":        {99},
		"short":               {recDone, 3, 9},
		"trailing bytes":      append((&rec{kind: recDispatch, level: 3}).encode(nil), 0),
		"implausible level":   binary.AppendUvarint([]byte{recDispatch}, 1<<41),
		"no member digest":    v3DoneRecord(),
		"digest over 32 bits": wideDigestRecord(),
	} {
		if _, err := decodeRec(p); err == nil {
			t.Errorf("%s: decodeRec accepted %x", name, p)
		}
	}
	if r, err := decodeRec((&rec{kind: recDone, digest: math.MaxUint32}).encode(nil)); err != nil || r.digest != math.MaxUint32 {
		t.Errorf("a digest of 2^32-1 must decode: %+v, %v", r, err)
	}
}

// v3DoneRecord is a recDone as journal version 3 wrote it, without the
// block's membership digest.
func v3DoneRecord() []byte {
	p := (&rec{kind: recDone, level: 3}).encode(nil)
	return p[:len(p)-1] // member 0 is its last byte
}

// wideDigestRecord is a recDone whose digest field holds 2^32 + 0xbeef: the
// version-1 decoder read it through the 2^40 bound and truncated it to
// 0xbeef, so a corrupt record aliased a valid claim.
func wideDigestRecord() []byte {
	p := []byte{recDone}
	for _, v := range []uint64{3, 9, 0, 16, 1, 1<<32 + 0xbeef, 7} {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// TestDoneBeforeDispatchIdempotent pins observer ordering tolerance: a
// dispatch record arriving for an already-done block (batch retried after
// resume) is a no-op, and duplicate done records are absorbed.
func TestDoneBeforeDispatchIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	defer c.Close()
	if err := blockDone(c, BlockID{0, 0}, [][]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	c.BlockDispatched(BlockID{0, 0}, member(BlockID{0, 0})) // late dispatch: ignored
	if err := blockDone(c, BlockID{0, 0}, [][]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if n := c.ReenqueuedBlocks(); n != 0 {
		t.Fatalf("late dispatch counted as re-enqueue: %d", n)
	}
}

// FuzzJournalReplay hammers the replay path with arbitrary bytes: replay
// must never panic, never error on a torn tail, and the valid offset must
// never exceed the file size.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, testID, Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		f.Fatal(err)
	}
	blockDone(c, BlockID{0, 0}, [][]int32{{1, 2, 3}})
	c.SealLevel(0, 1, 0xabc)
	c.FinishRun()
	c.Close()
	seedData, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedData)
	f.Add(seedData[:len(seedData)-1])
	f.Add(journalMagic[:])
	f.Add([]byte{})
	f.Add(durable.AppendFrame(journalMagic[:len(journalMagic):len(journalMagic)], wideDigestRecord()))
	f.Add(durable.AppendFrame(journalMagic[:len(journalMagic):len(journalMagic)], v3DoneRecord()))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.mcej")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, err := replayJournal(OSFS{}, path)
		if err != nil {
			return // bad magic: a refusal, not a crash
		}
		if off > int64(len(data)) && len(data) >= len(journalMagic) {
			t.Fatalf("valid offset %d beyond file size %d", off, len(data))
		}
		// Every replayed record must re-encode and re-decode.
		for _, r := range recs {
			if _, err := decodeRec(r.encode(nil)); err != nil {
				t.Fatalf("replayed record %+v does not round-trip: %v", r, err)
			}
		}
	})
}

// FuzzLevelLog gives a resume arbitrary bytes for a journal and for level
// 0's log: it must not panic, must not allocate more than a small multiple
// of what it was given (a claimed length or count is not an allocation
// request), and must serve no block whose cliques do not re-encode to the
// count and digest its done record claims.
func FuzzLevelLog(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, testID, Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		f.Fatal(err)
	}
	blockDone(c, BlockID{0, 1}, [][]int32{{1, 2, 3}, {4, 7, 70000}})
	blockDone(c, BlockID{0, 0}, nil)
	blockDone(c, BlockID{0, 2}, [][]int32{{0, 5}})
	c.SealLevel(0, 3, 0xabc)
	c.Close()
	journal, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(c.logPath(0))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(journal, log)
	f.Add(journal, log[:len(log)-1])
	f.Add(journal, flipped)
	f.Add(journal, []byte{})
	f.Add(journal[:len(journal)-2], log)
	// A record claiming 1 TiB at offset 0, and one whose frame header does.
	huge := durable.AppendFrame(journal[:len(journal):len(journal)], (&rec{kind: recDone, plan: 7, length: 1 << 40, count: 1 << 40}).encode(nil))
	f.Add(huge, log)
	f.Add(journal, append([]byte{0xff, 0xff, 0xff, 0x7f}, log[4:]...))

	f.Fuzz(func(t *testing.T, journal, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(JournalPath(dir), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "L000.mcel"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Open(dir, testID, Options{FS: faultfs.Unsynced(nil)})
		if err != nil {
			return // another run's journal, or not one: a refusal, not a crash
		}
		defer c.Close()
		claims := make(map[BlockID]doneInfo)
		for id, info := range c.done {
			claims[id] = info
		}
		for id, claim := range claims {
			w, ok := c.BlockDispatched(id, claim.member)
			if !ok {
				continue
			}
			_, digest, err := encodeFrame(w)
			if err != nil || w.Count != claim.count || digest != claim.digest {
				t.Fatalf("block %+v served as %d cliques digest %#x (%v), its record claims %d/%#x", id, w.Count, digest, err, claim.count, claim.digest)
			}
		}
		runtime.ReadMemStats(&after)
		// The fixed part is the read buffer, the maps and the family's first
		// chunk; the rest is records (a few dozen bytes of state per 10-byte
		// record) and members (4 bytes per 1-byte gap), twice over for the
		// re-encode above.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*(len(journal)+len(log))); grew > most {
			t.Fatalf("resuming %d journal and %d log bytes allocated %d bytes, over the %d allowed", len(journal), len(log), grew, most)
		}
	})
}

// blockDone and doneCliques put the tests' [][]int32 literals through the
// checkpoint's window API, each block with the membership digest member
// gives it; doneCliques is an executor taking the block.
func blockDone(c *Checkpoint, id BlockID, cliques [][]int32) error {
	return c.BlockDone(id, member(id), family.Of(cliques).Window())
}

func doneCliques(c *Checkpoint, id BlockID) ([][]int32, bool) {
	w, ok := c.BlockDispatched(id, member(id))
	return w.Views(nil), ok
}

// member stands in for a block's membership digest.
func member(id BlockID) uint64 { return uint64(id.Level)<<32 | uint64(id.Plan) + 0x9e37 }
