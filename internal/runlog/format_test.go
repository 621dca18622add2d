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

// TestCheckpointBytesUnchanged pins the on-disk checkpoint — the version-4
// journal and both level logs — for a fixed run across a close and a resume.
// The bytes do not depend on how the committer batched them: frames and
// records land in hand-over order whatever the grouping. (Version 1, one
// segment file per block, wrote 6 files digesting to a520bd49…7dba43;
// version 2, whose level records carried no plan digest, 8326e6fc…2685c3;
// version 3, whose level records came ahead of the level's blocks and whose
// done records carried no membership digest, c48b20fa…ae38e4.)
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
	for p := 0; p < 4; p++ {
		id := runlog.BlockID{Level: 0, Plan: p}
		c.BlockDispatched(id, member(id))
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
	c.SealLevel(0, 4, 0x0123456789abcdef)
	c.BlockDispatched(runlog.BlockID{Level: 1, Plan: 0}, member(runlog.BlockID{Level: 1, Plan: 0}))
	if err := blockDone(c, runlog.BlockID{Level: 1, Plan: 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.SealLevel(1, 1, 0xcbf29ce484222325)
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
	const want = "55cafb894b0ef6138a5c4eff9c7afa4dc0a783f2f5ac67b268ab2391b0810c5f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || len(files) != 3 {
		t.Fatalf("checkpoint of %d files digests to %s, want the journal and two level logs digesting to %s", len(files), got, want)
	}
}
