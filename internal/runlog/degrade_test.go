package runlog_test

import (
	"errors"
	"reflect"
	"syscall"
	"testing"

	"mce/internal/family"
	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
	"mce/internal/telemetry"
)

var degradeID = runlog.Identity{Graph: 0xabad1dea, Options: 0x5eed}

// driveToFirstDone opens a checkpoint over fs and runs the fixed prefix of
// a small run: plan 3 blocks, dispatch all, complete block {0,0}. The same
// prefix always writes the same bytes, which is what lets the tests place
// a byte budget at a chosen frame.
func driveToFirstDone(t *testing.T, dir string, fs runlog.FS, onDegrade func(error), met *telemetry.Engine) (*runlog.Checkpoint, [][]int32) {
	t.Helper()
	c, err := runlog.Open(dir, degradeID, runlog.Options{NoSync: true, FS: fs, OnDegrade: onDegrade, Metrics: met})
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

	if c.Degraded() {
		t.Fatal("degraded before the budget ran out")
	}
	// This BlockDone's segment write (or its journal record) hits the full
	// disk. The batch must not fail.
	if err := blockDone(c, runlog.BlockID{Level: 0, Plan: 1}, [][]int32{{8, 9}}); err != nil {
		t.Fatalf("BlockDone on a full disk must degrade, not fail: %v", err)
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
	if err := c.EndLevel(0); err != nil {
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
	r, err := runlog.Open(dir, degradeID, runlog.Options{NoSync: true})
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

			r, err := runlog.Open(dir, degradeID, runlog.Options{NoSync: true})
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
			fin, err := runlog.Open(dir, degradeID, runlog.Options{NoSync: true})
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
	w, ok := c.DoneCliques(id, new(family.Family))
	return w.Views(nil), ok
}
