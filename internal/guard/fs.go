package guard

import (
	"io"
	"os"
)

// File is the slice of *os.File the sweep fabric actually uses. Both
// the real filesystem and ChaosFS hand these out.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam: every byte the sweep fabric persists —
// STATE appends, cache puts, shard emits, merge reads — goes through
// one of these, so chaos tests can interpose seeded host faults
// without touching the code under test.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Create(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the real filesystem — a zero-state pass-through to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// WriteFileOn creates path through fsys and fills it with write,
// retrying transient write faults under retry (nil: one attempt).
func WriteFileOn(fsys FS, retry *Retrier, path string, write func(io.Writer) error) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	err = write(&RetryWriter{W: f, R: retry})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Or returns fsys, or OS when fsys is nil — the idiom callers use to
// default an optional FS field.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
