//go:build unix

package corpus

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and returns the mapping plus
// its release function. The mapping outlives the file descriptor,
// which is closed before returning.
func mmapFile(path string) ([]byte, func() error, error) {
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
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, errMmapUnavailable
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
