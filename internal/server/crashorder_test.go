package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storagefault"
)

// dirSyncFS passes every call through to the real file system except
// SyncDir, which runs hook when one is set: the crash-ordering test observes
// and fault-injects the directory fsync through the server's Options.FS.
type dirSyncFS struct {
	storagefault.FS
	hook func(dir string) error
}

func (d *dirSyncFS) SyncDir(dir string) error {
	if d.hook != nil {
		return d.hook(dir)
	}
	return d.FS.SyncDir(dir)
}

// TestSaveFileDirSyncOrdering locks in the crash-ordering fix deltavet's
// crashsafe analyzer found: SaveFile must fsync the parent directory after
// the rename, or a crash can forget the rename entirely.
func TestSaveFileDirSyncOrdering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	fsys := &dirSyncFS{FS: storagefault.OS}
	s := NewWithOptions(nil, Options{FS: fsys})

	calls := 0
	fsys.hook = func(d string) error {
		calls++
		if d != dir {
			t.Errorf("directory fsync on %q, want %q", d, dir)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory fsync before the rename: %v", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("temp file still present at directory-fsync time: err=%v", err)
		}
		return nil
	}
	defer func() { fsys.hook = nil }()

	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("directory fsyncs = %d, want 1", calls)
	}

	// A failed directory fsync must surface: the caller cannot treat the
	// snapshot as durable.
	boom := errors.New("injected crash at directory fsync")
	fsys.hook = func(string) error { return boom }
	if err := s.SaveFile(path); !errors.Is(err, boom) {
		t.Fatalf("SaveFile error = %v, want the injected crash", err)
	}
	fsys.hook = nil

	// The file that was renamed into place is still loadable.
	s2 := New(nil)
	if ok, err := s2.LoadFile(path); err != nil || !ok {
		t.Fatalf("LoadFile = %v, %v; want true, nil", ok, err)
	}
}
