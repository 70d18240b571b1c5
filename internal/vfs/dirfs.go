package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/storagefault"
)

// DirFS is an FS backed by a directory on a storagefault.FS — the real host
// file system by default (the command-line client syncing a real folder), or
// a simulated/fault-injecting disk when the crash-point harness drives the
// client's own persistence through failure. Hard-link counting in Stat is
// approximated as 1 (sufficient for the sync engines, which only use Size).
type DirFS struct {
	root string
	fsys storagefault.FS
}

// NewDirFS returns an FS rooted at dir on the host file system, creating it
// if necessary.
func NewDirFS(dir string) (*DirFS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return NewDirFSWith(storagefault.OS, abs)
}

// NewDirFSWith returns an FS rooted at dir on fsys (nil means the host file
// system), creating the root if necessary. dir is used as given — simulated
// disks have no working directory to resolve against.
func NewDirFSWith(fsys storagefault.FS, dir string) (*DirFS, error) {
	if fsys == nil {
		fsys = storagefault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: dirfs root: %w", err)
	}
	return &DirFS{root: dir, fsys: fsys}, nil
}

func (d *DirFS) abs(p string) string {
	return filepath.Join(d.root, filepath.FromSlash(clean(p)))
}

// Create implements FS.
func (d *DirFS) Create(p string) error {
	f, err := storagefault.Create(d.fsys, d.abs(p))
	if err != nil {
		return err
	}
	return f.Close()
}

// WriteAt implements FS.
func (d *DirFS) WriteAt(p string, off int64, data []byte) error {
	f, err := d.fsys.OpenFile(d.abs(p), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, off)
	return err
}

// ReadAt implements FS.
func (d *DirFS) ReadAt(p string, off, n int64) ([]byte, error) {
	f, err := storagefault.Open(d.fsys, d.abs(p))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:m], nil
}

// ReadFile implements FS.
func (d *DirFS) ReadFile(p string) ([]byte, error) { return d.fsys.ReadFile(d.abs(p)) }

// Truncate implements FS.
func (d *DirFS) Truncate(p string, size int64) error { return d.fsys.Truncate(d.abs(p), size) }

// Rename implements FS.
func (d *DirFS) Rename(oldPath, newPath string) error {
	return d.fsys.Rename(d.abs(oldPath), d.abs(newPath))
}

// Link implements FS.
func (d *DirFS) Link(oldPath, newPath string) error {
	return d.fsys.Link(d.abs(oldPath), d.abs(newPath))
}

// Unlink implements FS.
func (d *DirFS) Unlink(p string) error { return d.fsys.Remove(d.abs(p)) }

// Mkdir implements FS.
func (d *DirFS) Mkdir(p string) error { return d.fsys.Mkdir(d.abs(p), 0o755) }

// Rmdir implements FS.
func (d *DirFS) Rmdir(p string) error { return d.fsys.Remove(d.abs(p)) }

// Close implements FS (no-op: DirFS opens per call).
func (d *DirFS) Close(p string) error { return nil }

// Fsync implements FS.
func (d *DirFS) Fsync(p string) error {
	f, err := d.fsys.OpenFile(d.abs(p), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Stat implements FS.
func (d *DirFS) Stat(p string) (FileInfo, error) {
	st, err := d.fsys.Stat(d.abs(p))
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Size: st.Size, IsDir: st.IsDir, Links: 1}, nil
}

// List implements FS.
func (d *DirFS) List(prefix string) ([]string, error) {
	start := d.root
	if prefix != "" {
		start = d.abs(prefix)
	}
	names, err := d.fsys.List(start)
	if err != nil {
		return nil, err
	}
	if start == d.root {
		return names, nil
	}
	// List is root-relative in the FS contract; re-anchor the under-prefix
	// names the same way the WalkDir implementation did.
	rel, err := filepath.Rel(d.root, start)
	if err != nil {
		return nil, err
	}
	rel = strings.ReplaceAll(rel, string(filepath.Separator), "/")
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, rel+"/"+n)
	}
	return out, nil
}

var _ FS = (*DirFS)(nil)
