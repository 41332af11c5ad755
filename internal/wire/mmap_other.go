//go:build !unix

package wire

import "os"

// mapFile is the copying fallback for platforms without syscall.Mmap:
// the file is read into the heap once per process. Ladder rungs still
// share pages with each other (the in-process dedupe is structural),
// but separate processes each hold their own copy.
func mapFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// mmapSupported reports whether this platform shares ladder files by
// true memory mapping.
const mmapSupported = false

// lockFile is a no-op without flock(2): journals shared between
// processes (AppendShared) need a unix host.
func lockFile(*os.File) error { return nil }

// syncDir is a no-op where directories cannot be fsynced.
func syncDir(string) error { return nil }
