package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

// reopenWithWAL writes wal as dir's WAL file and opens the store over it.
func reopenWithWAL(t *testing.T, wal []byte) (*Store, string, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	return s, dir, err
}

// putCloseReopen proves a store recovered from a damaged WAL logs new
// records where the next replay finds them.
func putCloseReopen(t *testing.T, s *Store, dir string) {
	t.Helper()
	if err := s.Put([]byte("after"), []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(wal, walHeader) {
		t.Fatalf("WAL does not open with its header: % x", wal[:min(len(wal), len(walHeader))])
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get([]byte("after")); !ok || string(v) != "recovery" {
		t.Fatalf("record written after recovery lost on reopen: %q, %v", v, ok)
	}
}

// A fresh WAL, and the WAL a compaction truncates, both start with the
// header frame.
func TestWALHeaderWrittenOnCreateAndCompact(t *testing.T) {
	s, dir := openTemp(t)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(wal, walHeader) || len(wal) == len(walHeader) {
		t.Fatalf("fresh WAL: want header then a record, got %d bytes", len(wal))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if wal, err = os.ReadFile(walPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal, walHeader) {
		t.Fatalf("compacted WAL = % x, want just the header % x", wal, walHeader)
	}
}

// An empty WAL — a crash right after the compaction truncate, before the
// header reached the disk — replays as empty.
func TestWALEmptyReplaysEmpty(t *testing.T) {
	s, dir, err := reopenWithWAL(t, nil)
	if err != nil {
		t.Fatalf("Open over an empty WAL: %v", err)
	}
	if s.Len() != 0 || s.WALSize() != 0 {
		t.Fatalf("empty WAL replayed to %d keys, %d WAL bytes", s.Len(), s.WALSize())
	}
	putCloseReopen(t, s, dir)
}

// Every torn prefix of the header replays as empty, and the store truncates
// the torn bytes so its next records follow a whole header.
func TestWALTornHeaderReplaysEmpty(t *testing.T) {
	for n := 1; n < len(walHeader); n++ {
		t.Run(fmt.Sprintf("len=%d", n), func(t *testing.T) {
			s, dir, err := reopenWithWAL(t, walHeader[:n])
			if err != nil {
				t.Fatalf("Open over a torn header: %v", err)
			}
			if s.Len() != 0 {
				t.Fatalf("torn header replayed %d keys", s.Len())
			}
			putCloseReopen(t, s, dir)
		})
	}
}

// A complete header naming another kind or version is refused, and the
// error names the file and the version found.
func TestWALForeignHeaderRefused(t *testing.T) {
	header := func(magic string, version uint32) []byte {
		b := frame.AppendU32(frame.AppendStr(frame.Begin(nil), magic), version)
		if err := frame.Finish(b, 0, frame.MaxPayload); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		wal     []byte
		version string
	}{
		{"other-version", header(walMagic, walVersion+1), fmt.Sprint("version ", walVersion+1)},
		{"other-magic", header(snapshotMagic, walVersion), fmt.Sprint("version ", walVersion)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, dir, err := reopenWithWAL(t, tc.wal)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a foreign WAL header")
			}
			if msg := err.Error(); !strings.Contains(msg, filepath.Join(dir, walName)) || !strings.Contains(msg, tc.version) {
				t.Fatalf("error %q does not name the file and %q", msg, tc.version)
			}
		})
	}
}

// Records logged after recovering from a torn tail survive the next reopen:
// Open cuts the torn bytes, so new records do not land behind a frame replay
// can never get past.
func TestWALAppendAfterTornTailSurvives(t *testing.T) {
	s, dir := openTemp(t)
	if err := s.Put([]byte("good"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putCloseReopen(t, s2, dir)
}
