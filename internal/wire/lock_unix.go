//go:build unix

package wire

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory lock on f, waiting for a peer to
// release it; closing f releases it.
func lockFile(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}

// syncDir fsyncs a directory so a rename or link inside it survives an
// OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
