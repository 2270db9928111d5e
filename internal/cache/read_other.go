//go:build !unix

package cache

import "os"

// readEntry returns the contents of the file at p: os.ReadFile, where unix
// builds use bare system calls.
func readEntry(p string) ([]byte, error) { return os.ReadFile(p) }
