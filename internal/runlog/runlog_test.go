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
	if err := c.BeginLevel(0, 3); err != nil {
		t.Fatal(err)
	}
	c.BlockDispatched(BlockID{0, 0})
	c.BlockDispatched(BlockID{0, 1})
	c.BlockDispatched(BlockID{0, 2})
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
	if err := r.BeginLevel(0, 3); err != nil {
		t.Fatal(err)
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
	c.BeginLevel(0, 2)
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
// whose deterministic plan size changed is refused even though the digests
// matched.
func TestBlockPlanMismatch(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	c.BeginLevel(0, 4)
	c.Close()

	r := openTest(t, dir, testID)
	defer r.Close()
	if err := r.BeginLevel(0, 5); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("BeginLevel with changed plan: err %v, want ErrIdentityMismatch", err)
	}
}

// TestTornTailTruncated pins WAL recovery: chopping bytes off the journal
// tail loses at most the torn record — replay stops at the last intact
// record and the next session appends from there.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, testID)
	c.BeginLevel(0, 2)
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
			c.BeginLevel(0, 2)
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
		{kind: recLevel, level: 3, blocks: 17},
		{kind: recDispatch, level: 3, plan: 9},
		{kind: recDone, level: 3, plan: 9, off: 1 << 33, length: 4096, count: 12345, digest: 0xdeadbeef},
		{kind: recLevelEnd, level: 3},
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
		"trailing bytes":      append((&rec{kind: recLevelEnd, level: 3}).encode(nil), 0),
		"implausible level":   binary.AppendUvarint([]byte{recLevelEnd}, 1<<41),
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

// wideDigestRecord is a recDone whose digest field holds 2^32 + 0xbeef: the
// version-1 decoder read it through the 2^40 bound and truncated it to
// 0xbeef, so a corrupt record aliased a valid claim.
func wideDigestRecord() []byte {
	p := []byte{recDone}
	for _, v := range []uint64{3, 9, 0, 16, 1, 1<<32 + 0xbeef} {
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
	c.BeginLevel(0, 1)
	if err := blockDone(c, BlockID{0, 0}, [][]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	c.BlockDispatched(BlockID{0, 0}) // late dispatch: ignored
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
	c.BeginLevel(0, 2)
	blockDone(c, BlockID{0, 0}, [][]int32{{1, 2, 3}})
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
	c.BeginLevel(0, 3)
	blockDone(c, BlockID{0, 1}, [][]int32{{1, 2, 3}, {4, 7, 70000}})
	blockDone(c, BlockID{0, 0}, nil)
	blockDone(c, BlockID{0, 2}, [][]int32{{0, 5}})
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
			w, ok := c.DoneCliques(id)
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
// checkpoint's window API.
func blockDone(c *Checkpoint, id BlockID, cliques [][]int32) error {
	return c.BlockDone(id, family.Of(cliques).Window())
}

func doneCliques(c *Checkpoint, id BlockID) ([][]int32, bool) {
	w, ok := c.DoneCliques(id)
	return w.Views(nil), ok
}
