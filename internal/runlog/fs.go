package runlog

import (
	"os"

	"mce/internal/durable"
)

// FS, File and OSFS are the filesystem seam of internal/durable under the
// names checkpoint callers have always used; see Options.FS.
type (
	FS   = durable.FS
	File = durable.File
	OSFS = durable.OSFS
)

// noSyncFS makes every fsync of the files it opens for writing a no-op:
// Options.NoSync.
type noSyncFS struct{ FS }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}
