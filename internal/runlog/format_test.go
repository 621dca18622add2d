package runlog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mce/internal/runlog"
	"mce/internal/runlog/faultfs"
)

// TestCheckpointBytesUnchanged pins the on-disk checkpoint — the version-2
// journal and both level logs — for a fixed run across a close and a resume.
// The bytes do not depend on how the committer batched them: frames and
// records land in hand-over order whatever the grouping. (Version 1, one
// segment file per block, wrote 6 files digesting to a520bd49…7dba43.)
func TestCheckpointBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	id := runlog.Identity{Graph: 0x1234567890abcdef, Options: 0xfeedface}
	open := func() *runlog.Checkpoint {
		c, err := runlog.Open(dir, id, runlog.Options{FS: faultfs.Unsynced(nil)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	block := func(level, plan int) [][]int32 {
		var out [][]int32
		for i := int32(0); i < int32(3+plan); i++ {
			out = append(out, []int32{i, i + 1 + int32(plan), i + 200*int32(level+1), i + 70000})
		}
		return out
	}
	c := open()
	c.BeginLevel(0, 4)
	for p := 0; p < 4; p++ {
		c.BlockDispatched(runlog.BlockID{Level: 0, Plan: p})
	}
	for _, p := range []int{2, 0} {
		if err := blockDone(c, runlog.BlockID{Level: 0, Plan: p}, block(0, p)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	c = open() // a resume record, then the rest of the run
	for _, p := range []int{1, 3} {
		if err := blockDone(c, runlog.BlockID{Level: 0, Plan: p}, block(0, p)); err != nil {
			t.Fatal(err)
		}
	}
	c.EndLevel(0)
	c.BeginLevel(1, 1)
	c.BlockDispatched(runlog.BlockID{Level: 1, Plan: 0})
	if err := blockDone(c, runlog.BlockID{Level: 1, Plan: 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.EndLevel(1)
	c.FinishRun()
	c.Close()

	var files []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	const want = "8326e6fc53eb67d27461d304f3143888a18230449e730ad3944ffa258b2685c3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || len(files) != 3 {
		t.Fatalf("checkpoint of %d files digests to %s, want the journal and two level logs digesting to %s", len(files), got, want)
	}
}
