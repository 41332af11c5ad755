//go:build unix

package wire

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and returns the mapping plus a release
// function. The mapping is shared (MAP_SHARED) so every process mapping
// the same ladder file shares one physical copy of its pages; writes
// are impossible through it (PROT_READ), which the COW restore path
// never attempts anyway.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("wire: %s: %d bytes exceeds the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// mmapSupported reports whether this platform shares ladder files by
// true memory mapping (it affects telemetry labeling only).
const mmapSupported = true

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
