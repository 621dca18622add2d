package runlog_test

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mce/internal/durable"
	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

// countingFS counts what a checkpoint asks of the filesystem: the files it
// creates and the fsyncs it issues.
type countingFS struct {
	runlog.OSFS
	created, syncs atomic.Int64
}

type countingFile struct {
	runlog.File
	fs *countingFS
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (runlog.File, error) {
	if _, err := os.Stat(name); os.IsNotExist(err) && flag&os.O_CREATE != 0 {
		fs.created.Add(1)
	}
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	return countingFile{f, fs}, err
}

// TestCommitsAreGrouped pins what the log layout is for: a run of hundreds
// of blocks creates one file per level beside the journal, and fsyncs twice
// per commit — not per block — however the committer happened to batch.
func TestCommitsAreGrouped(t *testing.T) {
	const levels, blocks = 3, 400
	fs, met := &countingFS{}, telemetry.NewEngine()
	c, err := runlog.Open(t.TempDir(), degradeID, runlog.Options{FS: fs, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < levels; level++ {
		c.BeginLevel(level, blocks)
		for plan := 0; plan < blocks; plan++ {
			if err := blockDone(c, runlog.BlockID{Level: level, Plan: plan}, [][]int32{{int32(plan), int32(plan + level + 1)}}); err != nil {
				t.Fatal(err)
			}
		}
		c.EndLevel(level)
	}
	c.FinishRun()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if got := fs.created.Load(); got != levels+1 {
		t.Errorf("the run created %d files, want the journal and %d level logs", got, levels)
	}
	if snap.CheckpointCommitBlocks != levels*blocks || snap.CheckpointCommits == 0 || snap.CheckpointLogBytes == 0 {
		t.Errorf("commits=%d carried %d blocks in %d log bytes, want all %d blocks", snap.CheckpointCommits, snap.CheckpointCommitBlocks, snap.CheckpointLogBytes, levels*blocks)
	}
	// Two fsyncs per commit that carried blocks; one for Open's first
	// record, each level's end and the run's; one more per level should its
	// plan record have been committed before any block arrived.
	if got, most := fs.syncs.Load(), 2*snap.CheckpointCommits+2*levels+2; got > most {
		t.Errorf("%d fsyncs for %d commits, want at most %d", got, snap.CheckpointCommits, most)
	}
	if snap.CheckpointCommits*4 > levels*blocks {
		t.Errorf("%d commits for %d blocks handed over back to back: nothing was batched", snap.CheckpointCommits, levels*blocks)
	}
	if snap.CheckpointRecords != 1+levels*(blocks+2)+1 {
		t.Errorf("CheckpointRecords = %d, want one per record (%d), however they were grouped", snap.CheckpointRecords, 1+levels*(blocks+2)+1)
	}
}

// TestConcurrentBlockDone hands blocks over from many goroutines at once
// (run it with -race): EndLevel is the barrier after which every one of
// them is durable, in whatever order they reached the log.
func TestConcurrentBlockDone(t *testing.T) {
	const levels, workers, perWorker = 2, 8, 50
	dir := t.TempDir()
	cliquesOf := func(level, plan int) [][]int32 {
		return [][]int32{{int32(level), int32(level + plan + 1)}, {int32(plan), int32(plan + 1), int32(plan + 2)}}
	}
	c, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < levels; level++ {
		c.BeginLevel(level, workers*perWorker)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					id := runlog.BlockID{Level: level, Plan: w*perWorker + i}
					c.BlockDispatched(id)
					if err := blockDone(c, id, cliquesOf(level, id.Plan)); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		c.EndLevel(level)
		// The barrier has returned: every block of the level has its record
		// in the journal file, not in a buffer.
		journal, err := os.ReadFile(runlog.JournalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(recordOffsets(journal, recDone)), (level+1)*workers*perWorker; got != want {
			t.Fatalf("%d done records in the journal after EndLevel(%d), want %d", got, level, want)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for level := 0; level < levels; level++ {
		for plan := 0; plan < workers*perWorker; plan++ {
			if got, ok := doneCliques(r, runlog.BlockID{Level: level, Plan: plan}); !ok || !reflect.DeepEqual(got, cliquesOf(level, plan)) {
				t.Fatalf("level %d block %d: ok=%v got %v", level, plan, ok, got)
			}
		}
	}
}

// recDone is the journal's record kind for a completed block.
const recDone = 5

// recordOffsets returns where each record of the given kind starts in a
// journal file.
func recordOffsets(journal []byte, kind byte) (offs []int) {
	const magicLen = 5
	off := magicLen
	frames := durable.NewFrameReader(bytes.NewReader(journal[magicLen:]), 1<<20)
	for {
		payload, err := frames.Next()
		if err != nil {
			return offs
		}
		if payload[0] == kind {
			offs = append(offs, off)
		}
		off += durable.FrameHeaderLen + len(payload)
	}
}
