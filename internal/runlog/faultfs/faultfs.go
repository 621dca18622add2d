// Package faultfs wraps the real filesystem with deterministic write-error
// injection for chaos-testing the write paths behind the durable.FS seam:
// the runlog journal and segments, the index compiler, the serving segment
// directory. It models a disk that fills up mid-run: every write consumes a
// byte budget, and the write that would exceed it lands only partially — a
// torn journal frame or a half segment, exactly what a real ENOSPC leaves
// behind — before the injected error surfaces. Reads, and writes before the
// budget runs out, pass through untouched, so a checkpoint directory written
// through faultfs can be reopened with the real filesystem to test
// recovery.
package faultfs

import (
	"os"
	"sync/atomic"
	"syscall"

	"mce/internal/durable"
)

// FS is a durable.FS (so a runlog.FS) that injects a write failure once
// Budget bytes have been written across all files opened through it.
// Everything but the files it opens is the real filesystem's.
type FS struct {
	durable.OSFS
	// Err is returned by the failing write and every write after it.
	// Defaults to syscall.ENOSPC wrapped in an *os.PathError.
	Err error

	written atomic.Int64
	budget  int64
}

// New returns an FS whose writes start failing after budget total bytes.
func New(budget int64) *FS { return &FS{budget: budget} }

// Written reports the total bytes actually written so far.
func (fs *FS) Written() int64 { return fs.written.Load() }

func (fs *FS) errFor(name string) error {
	if fs.Err != nil {
		return fs.Err
	}
	return &os.PathError{Op: "write", Path: name, Err: syscall.ENOSPC}
}

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs, name: name}, nil
}

func (fs *FS) Create(name string) (durable.File, error) {
	return fs.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// file charges every write against the shared budget. The failing write
// ships the part of its payload that still fits — torn, like a real full
// disk — and reports the injected error.
type file struct {
	*os.File
	fs   *FS
	name string
}

func (f *file) Write(p []byte) (int, error) {
	for {
		used := f.fs.written.Load()
		rem := f.fs.budget - used
		if rem >= int64(len(p)) {
			if !f.fs.written.CompareAndSwap(used, used+int64(len(p))) {
				continue
			}
			return f.File.Write(p)
		}
		if rem < 0 {
			rem = 0
		}
		if !f.fs.written.CompareAndSwap(used, used+rem) {
			continue
		}
		n, err := f.File.Write(p[:rem])
		if err == nil {
			err = f.fs.errFor(f.name)
		}
		return n, err
	}
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	// The journal only WriteAts its tiny magic header; charge it like a
	// write but without tearing (the header either fits or fails whole).
	if f.fs.written.Add(int64(len(p))) > f.fs.budget {
		return 0, f.fs.errFor(f.name)
	}
	return f.File.WriteAt(p, off)
}
