package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storagefault"
)

// dirSyncFS passes every call through to the real file system except
// SyncDir, which runs hook when one is set: the crash-ordering tests observe
// and fault-inject the directory fsync through the store's Options.FS.
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

// TestCompactDirSyncOrdering locks in the crash-ordering fix deltavet's
// crashsafe analyzer found: during compaction the directory fsync must
// happen after the snapshot rename and before the WAL truncate.
func TestCompactDirSyncOrdering(t *testing.T) {
	dir := t.TempDir()
	fsys := &dirSyncFS{FS: storagefault.OS}
	s, err := OpenWith(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	calls := 0
	fsys.hook = func(d string) error {
		calls++
		if d != dir {
			t.Errorf("directory fsync on %q, want %q", d, dir)
		}
		if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
			t.Errorf("directory fsync before the snapshot rename: %v", err)
		}
		st, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatalf("stat wal: %v", err)
		}
		if st.Size() == 0 {
			t.Error("WAL truncated before the directory fsync: a crash here loses the rename and the log together")
		}
		return nil
	}
	defer func() { fsys.hook = nil }()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Compact never fsynced the directory")
	}
}

// TestCompactCrashBeforeDirSyncReplays simulates a crash in the window the
// fix closes: compaction dies at the directory fsync — after the snapshot
// rename, before the WAL truncate. The WAL must be intact and a reopened
// store must replay to the same contents.
func TestCompactCrashBeforeDirSyncReplays(t *testing.T) {
	dir := t.TempDir()
	fsys := &dirSyncFS{FS: storagefault.OS}
	s, err := OpenWith(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected crash at directory fsync")
	fsys.hook = func(string) error { return boom }
	if err := s.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want the injected crash", err)
	}
	fsys.hook = nil

	// The failed compaction must not have truncated the WAL.
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("WAL truncated even though the rename was never made durable")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, v := range want {
		got, ok, err := s2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after replay, Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
}
