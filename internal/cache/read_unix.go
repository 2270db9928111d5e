//go:build unix

package cache

import (
	"bytes"
	"os"
	"syscall"
)

// readEntry returns the contents of the file at p. A warm-cache hit is
// little more than this read, so it is one open(2), read(2)s into a stack
// buffer until EOF, a close(2) and one exact-size copy, without the poller
// registration, fstat and finalizer of an *os.File. O_NONBLOCK keeps a FIFO
// in an entry's place from blocking the open or the read: with no writer it
// reads as empty, which Get counts as damage. An entry that fills the
// buffer is read again whole by os.ReadFile.
func readEntry(p string) ([]byte, error) {
	fd, err := openReadOnly(p)
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: p, Err: err}
	}
	var buf [entryReadBytes]byte
	n := 0
	for n < len(buf) {
		m, err := syscall.Read(fd, buf[n:])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			syscall.Close(fd)
			return nil, &os.PathError{Op: "read", Path: p, Err: err}
		case m == 0:
			syscall.Close(fd)
			return bytes.Clone(buf[:n]), nil
		}
		n += m
	}
	syscall.Close(fd)
	return os.ReadFile(p)
}

// openReadOnly opens p for readEntry, retrying EINTR.
func openReadOnly(p string) (int, error) {
	for {
		fd, err := syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC|syscall.O_NONBLOCK, 0)
		if err != syscall.EINTR {
			return fd, err
		}
	}
}
