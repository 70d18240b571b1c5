// Package storagefault is the storage dual of internal/faultinject: a
// file-IO interface that every persistence site in the repository writes
// through (the kvstore WAL and snapshots, the server push journal and
// SaveFile, undolog snapshots, and the vfs passthrough backend), with three
// interchangeable implementations:
//
//   - OS: direct passthrough to the real file system (the default —
//     production behavior, zero overhead beyond an interface call);
//   - Injector: a seeded, deterministic fault layer over any FS — fsync
//     failures with fsyncgate semantics (a failed Sync poisons the file:
//     retrying can never silently report clean), torn appends, an ENOSPC
//     byte budget, and read-side bit corruption;
//   - SimDisk: an in-memory disk with an explicit durability model (what
//     fsync promised vs what the page cache holds) and an ordered trace of
//     every mutating IO, so a harness can fork the disk at any trace prefix
//     and simulate a crash there (ALICE-style crash-point exploration).
//
// The durability model SimDisk implements is the strict POSIX one the
// crashsafe analyzer assumes: file content is durable only up to the last
// File.Sync; directory entries (create, rename, remove, link) are durable
// only after SyncDir on the parent; directory creation itself is durable
// immediately (journaled metadata, the behavior of every mainstream Linux
// file system). A crash discards everything volatile — which both loses
// un-fsynced data and "reorders" it relative to durable metadata, the two
// failure shapes that break naive write orderings.
package storagefault

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Injected fault sentinels. Callers classify with errors.Is.
var (
	// ErrSyncFailed is the injected fsync failure itself.
	ErrSyncFailed = errors.New("storagefault: injected fsync failure")
	// ErrPoisoned reports an operation on a file whose earlier Sync failed.
	// Per fsyncgate, the kernel marks dirty pages clean after a failed
	// fsync, so a retry that reports success has silently lost data; the
	// injector forbids the retry outright.
	ErrPoisoned = errors.New("storagefault: file poisoned by earlier failed fsync")
	// ErrTorn is an injected partial append: a prefix of the write landed.
	ErrTorn = errors.New("storagefault: injected torn write")
	// ErrNoSpace is the injected ENOSPC.
	ErrNoSpace = errors.New("storagefault: injected ENOSPC")
)

// File is an open file handle. The subset of *os.File the persistence
// sites use; Size replaces Stat so implementations need not fake FileInfo.
type File interface {
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync flushes the file's data to stable storage. After a Sync error
	// the handle's durability is unknown; fault-injecting implementations
	// poison the file (ErrPoisoned) rather than let a retry report clean.
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
}

// Info is the minimal stat result.
type Info struct {
	Size  int64
	IsDir bool
}

// FS is the file-system interface all persistence sites write through.
// Paths keep whatever convention the caller uses (the OS implementation
// passes them straight to the os package; SimDisk cleans them as
// slash-separated).
type FS interface {
	// OpenFile opens name with os.O_* flags. O_CREATE, O_TRUNC, O_APPEND,
	// O_RDONLY and O_WRONLY/O_RDWR are honored by every implementation.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldName, newName string) error
	Remove(name string) error
	Link(oldName, newName string) error
	Truncate(name string, size int64) error
	Mkdir(name string, perm os.FileMode) error
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making completed renames and created
	// names in it durable. POSIX only guarantees a new or moved name
	// survives a crash once the parent directory's metadata is synced.
	SyncDir(dir string) error
	Stat(name string) (Info, error)
	// List returns the slash-relative paths of all regular files under
	// dir, sorted. A missing dir is not an error (empty result).
	List(dir string) ([]string, error)
}

// Create opens name for writing, truncating it if it exists (os.Create).
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Open opens name read-only (os.Open).
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// ReplaceFile atomically replaces path with the bytes write produces, the
// one temp-write → fsync → close → rename → directory-fsync sequence every
// snapshot uses: write fills path+".tmp" through a buffered writer, which
// is flushed, fsynced and closed before the rename publishes it; the parent
// directory's fsync then makes the rename itself durable. A crash at any
// point leaves either the old file or the complete new one under path.
func ReplaceFile(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := Create(fsys, tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// OS is the passthrough FS: every call maps 1:1 onto the os package. It is
// the default everywhere a storagefault.FS is accepted, so production
// behavior is unchanged by the indirection.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error)              { return o.f.Write(p) }
func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Rename(oldName, newName string) error      { return os.Rename(oldName, newName) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) Link(oldName, newName string) error        { return os.Link(oldName, newName) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
func (osFS) Mkdir(name string, perm os.FileMode) error { return os.Mkdir(name, perm) }
func (osFS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Stat(name string) (Info, error) {
	st, err := os.Stat(name)
	if err != nil {
		return Info{}, err
	}
	return Info{Size: st.Size(), IsDir: st.IsDir()}, nil
}

func (osFS) List(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(p string, de os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if de.Type().IsRegular() {
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
