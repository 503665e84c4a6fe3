// Package fault provides the fault-tolerance primitives the serving path
// is built on: a small filesystem abstraction that store reads and spill
// I/O are routed through (so tests can inject disk faults
// deterministically), and a per-store health state machine fed by the
// store's open and by spill I/O outcomes.
//
// The FS interface is intentionally tiny — exactly the operations the
// store and the spill path perform — so a fault-injecting implementation
// can reason about every call site. Production code uses OS, a direct
// passthrough to package os; chaos tests wrap it in an Injector.
package fault

import (
	"io"
	"os"
)

// File is the subset of *os.File the store and spill paths use. Spill run
// files are written sequentially and then read back via ReadAt from
// multiple merge cursors; table files are read sequentially.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Closer
	Name() string
}

// FS abstracts the filesystem operations on the serving path. All methods
// mirror their package-os counterparts.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	// CreateTemp mirrors os.CreateTemp: dir "" means the OS temp dir.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
}

// OS is the production FS: a direct passthrough to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Remove(name string) error { return os.Remove(name) }
