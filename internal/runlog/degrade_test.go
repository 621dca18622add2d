package runlog_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"mce/internal/family"
	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

var degradeID = runlog.Identity{Graph: 0xabad1dea, Options: 0x5eed}

// driveToFirstDone opens a checkpoint over fs and runs the fixed prefix of
// a small run: plan 3 blocks, dispatch all, complete block {0,0}. The same
// prefix always writes the same bytes, however the committer batches them,
// which is what lets the tests place a byte budget at a chosen frame — once
// committed has seen the whole prefix land.
func driveToFirstDone(t *testing.T, dir string, fs runlog.FS, onDegrade func(error), met *telemetry.Engine) (*runlog.Checkpoint, [][]int32) {
	t.Helper()
	c, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(fs), OnDegrade: onDegrade, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	cl0 := [][]int32{{1, 2, 3}, {4, 7}}
	if err := c.BeginLevel(0, 3); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		c.BlockDispatched(runlog.BlockID{Level: 0, Plan: p})
	}
	if err := blockDone(c, runlog.BlockID{Level: 0, Plan: 0}, cl0); err != nil {
		t.Fatal(err)
	}
	return c, cl0
}

// measureFirstDone reports how many bytes the driveToFirstDone prefix
// writes, so tests can set a budget that tears the next journal frame.
func measureFirstDone(t *testing.T) int64 {
	t.Helper()
	fs := faultfs.New(1 << 40)
	c, _ := driveToFirstDone(t, t.TempDir(), fs, nil, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return fs.Written()
}

// committed waits until the committer has written want bytes through fs:
// the prefix is on disk, and the next write is the test's next call.
func committed(t *testing.T, fs *faultfs.FS, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fs.Written() < want; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the committer wrote %d of the prefix's %d bytes", fs.Written(), want)
		}
	}
}

// TestENOSPCMidCheckpointDegrades pins the tentpole guardrail: a full disk
// mid-run flips the checkpoint into a degraded mode where the run
// continues, every later observer call is a clean no-op, and the injected
// error is reported exactly once through OnDegrade.
func TestENOSPCMidCheckpointDegrades(t *testing.T) {
	prefix := measureFirstDone(t)
	dir := t.TempDir()
	var degradeErrs []error
	met := telemetry.NewEngine()
	fs := faultfs.New(prefix) // the very next write fails
	c, cl0 := driveToFirstDone(t, dir, fs, func(err error) { degradeErrs = append(degradeErrs, err) }, met)
	committed(t, fs, prefix)

	if c.Degraded() {
		t.Fatal("degraded before the budget ran out")
	}
	// This block's frame hits the full disk when the committer appends it.
	// The batch must not fail, and the barrier behind it must not hang.
	if err := blockDone(c, runlog.BlockID{Level: 0, Plan: 1}, [][]int32{{8, 9}}); err != nil {
		t.Fatalf("BlockDone on a full disk must degrade, not fail: %v", err)
	}
	if err := c.EndLevel(0); err != nil {
		t.Fatalf("EndLevel on a full disk must degrade, not fail: %v", err)
	}
	if !c.Degraded() {
		t.Fatal("checkpoint not degraded after ENOSPC")
	}
	if len(degradeErrs) != 1 || !errors.Is(degradeErrs[0], syscall.ENOSPC) {
		t.Fatalf("OnDegrade calls = %v, want exactly one ENOSPC", degradeErrs)
	}
	if !errors.Is(c.DegradeError(), syscall.ENOSPC) {
		t.Fatalf("DegradeError = %v, want ENOSPC", c.DegradeError())
	}
	if met.CheckpointDegraded.Load() != 1 {
		t.Fatal("CheckpointDegraded gauge not set")
	}
	// The rest of the run keeps going as no-ops.
	if err := blockDone(c, runlog.BlockID{Level: 0, Plan: 2}, [][]int32{{5}}); err != nil {
		t.Fatal(err)
	}
	if err := c.FinishRun(); err != nil {
		t.Fatal(err)
	}
	if len(degradeErrs) != 1 {
		t.Fatalf("OnDegrade fired %d times, want once", len(degradeErrs))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("degraded Close must be clean: %v", err)
	}

	// The journal is torn, never corrupt: a real-filesystem reopen replays
	// the durable prefix — block {0,0} done, nothing after it, and no
	// run-end claim from the degraded session.
	r, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatalf("reopen after degrade: %v", err)
	}
	defer r.Close()
	if r.Completed() {
		t.Fatal("degraded run must not be journaled as completed")
	}
	got, ok := doneCliques(r, runlog.BlockID{Level: 0, Plan: 0})
	if !ok || !reflect.DeepEqual(got, cl0) {
		t.Fatalf("durable block lost: ok=%v got=%v", ok, got)
	}
	if _, ok := doneCliques(r, runlog.BlockID{Level: 0, Plan: 1}); ok {
		t.Fatal("block completed after ENOSPC must not replay as done")
	}
}

// TestResumeAfterTornFrame pins the satellite: a journal frame torn
// mid-write by the injected error — a partial frame header, or a full
// header with a partial payload — must replay to the last durable record
// and resume cleanly.
func TestResumeAfterTornFrame(t *testing.T) {
	prefix := measureFirstDone(t)
	for name, extra := range map[string]int64{
		"mid-header":  3, // 3 of the next frame's 8 header bytes land
		"mid-payload": 9, // full header, 1 of the 2 payload bytes lands
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs := faultfs.New(prefix + extra)
			c, cl0 := driveToFirstDone(t, dir, fs, nil, nil)
			committed(t, fs, prefix)
			// The next pure-journal append tears mid-frame.
			if err := c.EndLevel(0); err != nil {
				t.Fatal(err)
			}
			if !c.Degraded() {
				t.Fatal("torn append did not degrade")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
			if err != nil {
				t.Fatalf("reopen after torn frame: %v", err)
			}
			if !r.Resumed() {
				t.Fatal("torn journal did not resume")
			}
			got, ok := doneCliques(r, runlog.BlockID{Level: 0, Plan: 0})
			if !ok || !reflect.DeepEqual(got, cl0) {
				t.Fatalf("last durable block lost: ok=%v got=%v", ok, got)
			}
			// The truncated journal must accept new appends: finish the
			// run and check the completion survives another reopen.
			for p := 1; p < 3; p++ {
				if err := blockDone(r, runlog.BlockID{Level: 0, Plan: p}, [][]int32{{int32(p)}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.EndLevel(0); err != nil {
				t.Fatal(err)
			}
			if err := r.FinishRun(); err != nil {
				t.Fatal(err)
			}
			if r.Degraded() {
				t.Fatal("healthy resume reported degraded")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			fin, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer fin.Close()
			if !fin.Completed() {
				t.Fatal("resumed run not journaled as completed")
			}
		})
	}
}

// blockDone and doneCliques put the tests' [][]int32 literals through the
// checkpoint's window API.
func blockDone(c *runlog.Checkpoint, id runlog.BlockID, cliques [][]int32) error {
	return c.BlockDone(id, family.Of(cliques).Window())
}

func doneCliques(c *runlog.Checkpoint, id runlog.BlockID) ([][]int32, bool) {
	w, ok := c.DoneCliques(id)
	return w.Views(nil), ok
}

// matrixRun is the fixed run the crash matrix drives: three blocks on level
// 0, one of them empty, then a one-block level 1.
var matrixRun = []struct {
	id      runlog.BlockID
	cliques [][]int32
}{
	{runlog.BlockID{Level: 0, Plan: 1}, [][]int32{{1, 2, 3}, {4, 7}}},
	{runlog.BlockID{Level: 0, Plan: 0}, nil},
	{runlog.BlockID{Level: 0, Plan: 2}, [][]int32{{0, 70000}}},
	{runlog.BlockID{Level: 1, Plan: 0}, [][]int32{{5, 6, 9}}},
}

// driveMatrixRun runs matrixRun to completion on c, skipping the blocks
// done reports as already served.
func driveMatrixRun(t *testing.T, c *runlog.Checkpoint, done map[runlog.BlockID]bool) {
	t.Helper()
	for level, blocks := range []int{3, 1} {
		if err := c.BeginLevel(level, blocks); err != nil {
			t.Fatal(err)
		}
		for _, b := range matrixRun {
			if b.id.Level != level || done[b.id] {
				continue
			}
			c.BlockDispatched(b.id)
			if err := blockDone(c, b.id, b.cliques); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.EndLevel(level); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FinishRun(); err != nil {
		t.Fatal(err)
	}
}

// servedBlocks reads every block of matrixRun back from c and fails the
// test if one is served with anything but the cliques it was given.
func servedBlocks(t *testing.T, c *runlog.Checkpoint) map[runlog.BlockID]bool {
	t.Helper()
	served := map[runlog.BlockID]bool{}
	for _, b := range matrixRun {
		got, ok := doneCliques(c, b.id)
		if !ok {
			continue
		}
		if len(got) != len(b.cliques) || (len(got) > 0 && !reflect.DeepEqual(got, b.cliques)) {
			t.Fatalf("block %+v served as %v, it completed as %v", b.id, got, b.cliques)
		}
		served[b.id] = true
	}
	return served
}

// recoverMatrixRun is the second half of every crash-matrix case: open dir
// as the session after the crash, check that whatever it serves is what was
// written, finish the run, and check that the session after that serves all
// of it and re-executes nothing.
func recoverMatrixRun(t *testing.T, dir string) (served int) {
	t.Helper()
	r, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatalf("reopen after the crash: %v", err)
	}
	done := servedBlocks(t, r)
	if r.Completed() && len(done) != len(matrixRun) {
		t.Fatalf("the journal records the run's end but only %d of %d blocks are served", len(done), len(matrixRun))
	}
	driveMatrixRun(t, r, done)
	if r.Degraded() {
		t.Fatalf("the recovery session degraded: %v", r.DegradeError())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	fin, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Close()
	if all := servedBlocks(t, fin); len(all) != len(matrixRun) || !fin.Completed() {
		t.Fatalf("after recovery %d of %d blocks are served, completed=%v", len(all), len(matrixRun), fin.Completed())
	}
	return len(done)
}

// TestCrashMatrix is the durability contract as a table. A crash is a disk
// that takes exactly budget bytes — across the journal and both level logs,
// in the order the committer writes them — and then nothing: the sweep puts
// it at every byte of the run, which tears a log frame, a journal record,
// and lands between a batch's log fsync and its journal write. The named
// cases are the states a byte budget cannot reach.
func TestCrashMatrix(t *testing.T) {
	clean := func(t *testing.T, fs runlog.FS) string {
		dir := t.TempDir()
		c, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(fs)})
		if err != nil {
			t.Fatal(err)
		}
		driveMatrixRun(t, c, nil)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	counter := faultfs.New(1 << 40)
	clean(t, counter)
	total := counter.Written()

	t.Run("every-byte-budget", func(t *testing.T) {
		most := 0
		for budget := int64(0); budget <= total; budget++ {
			dir := t.TempDir()
			c, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(faultfs.New(budget))})
			if err != nil {
				continue // the disk was full before the journal had its first record
			}
			driveMatrixRun(t, c, nil)
			if c.Degraded() != (budget < total) {
				t.Fatalf("budget %d of %d: degraded=%v", budget, total, c.Degraded())
			}
			c.Close()
			most = max(most, recoverMatrixRun(t, dir))
		}
		if most != len(matrixRun) {
			t.Fatalf("no budget up to the whole run's %d bytes left all %d blocks served (most: %d)", total, len(matrixRun), most)
		}
	})

	// The log holds a block's frame, fsynced, but the crash kept its record
	// from the journal: the block re-executes, and the orphan is cut so the
	// log ends up byte for byte what the uninterrupted run wrote.
	t.Run("frame-durable-record-missing", func(t *testing.T) {
		dir := clean(t, nil)
		want, err := os.ReadFile(filepath.Join(dir, "L001.mcel"))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := os.ReadFile(runlog.JournalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		// The journal's tail is: done {1,0}, level-end 1, run-end.
		if err := os.WriteFile(runlog.JournalPath(dir), journal[:slices.Max(recordOffsets(journal, recDone))], 0o644); err != nil {
			t.Fatal(err)
		}
		if served := recoverMatrixRun(t, dir); served != 3 {
			t.Fatalf("%d blocks served with level 1's record cut from the journal, want level 0's three", served)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "L001.mcel")); !reflect.DeepEqual(got, want) {
			t.Fatalf("level 1's log is %d bytes after the re-execution, the uninterrupted run's is %d", len(got), len(want))
		}
	})

	// A checkpoint in the version-1 layout is refused by name, journal or
	// segment directory, and left as it was.
	t.Run("version-1-refused", func(t *testing.T) {
		for name, lay := range map[string]func(dir string) error{
			"journal":  func(dir string) error { return os.WriteFile(runlog.JournalPath(dir), []byte("MCEJ\x01"), 0o644) },
			"segments": func(dir string) error { return os.Mkdir(filepath.Join(dir, "segments"), 0o755) },
		} {
			dir := t.TempDir()
			if err := lay(dir); err != nil {
				t.Fatal(err)
			}
			_, err := runlog.Open(dir, degradeID, runlog.Options{FS: faultfs.Unsynced(nil)})
			if err == nil || !strings.Contains(err.Error(), "version-1") || !strings.Contains(err.Error(), "fresh -checkpoint") {
				t.Fatalf("%s: err %v, want a refusal naming version 1 and the way out", name, err)
			}
		}
	})
}
