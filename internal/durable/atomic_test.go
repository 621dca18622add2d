package durable_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"mce/internal/durable"
	"mce/internal/runlog/faultfs"
)

// TestAtomicReplaceTornWrites runs a replace under every write budget from
// nothing to the whole file: the live name must hold the previous complete
// content until the budget covers the new one, then the new complete
// content — and no temp file is left behind either way.
func TestAtomicReplaceTornWrites(t *testing.T) {
	previous, next := []byte("previous complete file"), bytes.Repeat([]byte("new "), 40)
	write := func(w io.Writer) error {
		for off := 0; off < len(next); off += 16 { // several writes, so a budget can tear between them
			if _, err := w.Write(next[off:min(off+16, len(next))]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, seeded := range []bool{false, true} {
		for budget := 0; budget <= len(next); budget++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "live")
			if seeded {
				if err := os.WriteFile(path, previous, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := durable.AtomicReplace(faultfs.New(int64(budget)), path, write)
			got, readErr := os.ReadFile(path)
			switch {
			case budget == len(next):
				if err != nil || !bytes.Equal(got, next) {
					t.Fatalf("budget %d: err %v, live file %q", budget, err, got)
				}
			case !errors.Is(err, syscall.ENOSPC):
				t.Fatalf("budget %d: err %v, want ENOSPC", budget, err)
			case seeded && !bytes.Equal(got, previous):
				t.Fatalf("budget %d: a failed replace left %q under the live name", budget, got)
			case !seeded && !os.IsNotExist(readErr):
				t.Fatalf("budget %d: a failed first write left a live file (%v)", budget, readErr)
			}
			if entries, _ := os.ReadDir(dir); len(entries) > 1 || (len(entries) == 1 && entries[0].Name() != "live") {
				t.Fatalf("budget %d: directory holds %v after the replace", budget, entries)
			}
		}
	}
}

// TestAtomicReplaceReportsWriteError: the callback's own error comes back
// and nothing lands.
func TestAtomicReplaceReportsWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live")
	boom := errors.New("boom")
	if err := durable.AtomicReplace(durable.OSFS{}, path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want the callback's", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("live file exists after a failed write (%v)", err)
	}
}
