//go:build !unix

package wire

import "os"

// lockFile is a no-op without flock(2): journals shared between
// processes (AppendShared) need a unix host.
func lockFile(*os.File) error { return nil }

// syncDir is a no-op where directories cannot be fsynced.
func syncDir(string) error { return nil }
