package runlog

import "mce/internal/durable"

// FS, File and OSFS are the filesystem seam of internal/durable under the
// names checkpoint callers have always used; see Options.FS.
type (
	FS   = durable.FS
	File = durable.File
	OSFS = durable.OSFS
)
