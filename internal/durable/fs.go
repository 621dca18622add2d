package durable

import (
	"io"
	"math/rand"
	"os"
	"strconv"
)

// FS abstracts the filesystem operations the durable writers perform, so
// tests can inject write failures (a full disk mid-checkpoint, a frame torn
// by a short write) without touching a real disk. OSFS is the real one.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

// File is the subset of *os.File the journal and the atomic writers rely
// on.
type File interface {
	io.ReadWriteCloser
	io.Seeker
	io.WriterAt
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OSFS) Open(name string) (File, error)               { return os.Open(name) }
func (OSFS) Create(name string) (File, error)             { return os.Create(name) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// AtomicReplace lands a file under path all or nothing: write fills a temp
// file beside it, which is fsynced, closed and renamed over path. On any
// failure the temp file is removed and path is left as it was — absent or
// the previous complete file — so neither a crash nor a full disk leaves a
// torn file under the live name. Each call creates a temp file of its own
// (O_EXCL under a random name), so concurrent replaces of one path do not
// mix; the last rename wins.
func AtomicReplace(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp" + strconv.FormatUint(uint64(rand.Uint32()), 10)
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp) // best effort: the write's error is the one to report
	}
	return err
}
