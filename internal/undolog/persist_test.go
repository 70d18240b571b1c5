package undolog

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/frame"
	"repro/internal/storagefault"
)

// bigLog preserves a segment longer than frame.SplitSize plus a small one in
// a second file, returning the log and the pre-update image of "big".
func bigLog(tb testing.TB) (*Log, []byte) {
	old := make([]byte, 3*frame.SplitSize)
	rand.New(rand.NewSource(1)).Read(old)
	read := func(off, n int64) ([]byte, error) { return old[off : off+n], nil }
	l := New(nil)
	l.Track("big", int64(len(old)))
	if err := l.BeforeWrite("big", 100, 2*frame.SplitSize+7, read); err != nil {
		tb.Fatal(err)
	}
	l.Track("small", 16)
	if err := l.BeforeWrite("small", 2, 3, read); err != nil {
		tb.Fatal(err)
	}
	return l, old
}

func TestSnapshotRoundTripSplitsLongSegments(t *testing.T) {
	l, old := bigLog(t)
	path := filepath.Join(t.TempDir(), "undo.snap")
	if err := l.SaveTo(nil, path); err != nil {
		t.Fatal(err)
	}
	got := New(nil)
	if ok, err := got.LoadFrom(nil, path); !ok || err != nil {
		t.Fatalf("LoadFrom = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got.files, l.files) {
		t.Fatal("log state changed across save/load")
	}
	current := append([]byte(nil), old...)
	copy(current[100:], bytes.Repeat([]byte{0xee}, 2*frame.SplitSize+7))
	if v, ok := got.OldVersion("big", current); !ok || !bytes.Equal(v, old) {
		t.Fatal("reloaded log does not reconstruct the old version")
	}
}

func TestLoadFromCorruptLeavesLogEmpty(t *testing.T) {
	l, _ := bigLog(t)
	path := filepath.Join(t.TempDir(), "undo.snap")
	if err := l.SaveTo(nil, path); err != nil {
		t.Fatal(err)
	}
	raw, err := storagefault.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"flipped bit":      flipBit(raw, len(raw)/2),
		"cut before end":   raw[:len(raw)-17],
		"foreign contents": []byte("not an undo log"),
	} {
		disk := storagefault.NewSimDisk()
		writeFile(t, disk, "undo.snap", bad)
		target, _ := bigLog(t)
		if ok, err := target.LoadFrom(disk, "undo.snap"); ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: LoadFrom = %v, %v; want ErrCorrupt", name, ok, err)
		}
		if len(target.files) != 0 {
			t.Fatalf("%s: corrupt load left %d files in the log", name, len(target.files))
		}
	}
}

func flipBit(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= 0x04
	return out
}

func writeFile(tb testing.TB, fsys storagefault.FS, name string, data []byte) {
	tb.Helper()
	f, err := storagefault.Create(fsys, name)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

func fuzzSeedsLoadFrom(tb testing.TB) [][]byte {
	disk := storagefault.NewSimDisk()
	read := func(off, n int64) ([]byte, error) { return bytes.Repeat([]byte{'x'}, int(n)), nil }
	l := New(nil)
	l.Track("f", 64)
	if err := l.BeforeWrite("f", 8, 16, read); err != nil {
		tb.Fatal(err)
	}
	l.Track("g", 0)
	if err := l.SaveTo(disk, "snap"); err != nil {
		tb.Fatal(err)
	}
	good, err := disk.ReadFile("snap")
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{good, good[:len(good)-9], flipBit(good, len(good)/2), {}}
}

// LoadFrom must turn any file into a loaded log or ErrCorrupt with the log
// empty — never a panic, never an allocation out of proportion to the file.
// Seeds live in testdata/fuzz/FuzzLoadFrom.
func FuzzLoadFrom(f *testing.F) {
	for _, seed := range fuzzSeedsLoadFrom(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		disk := storagefault.NewSimDisk()
		writeFile(t, disk, "snap", data)
		l := New(nil)
		l.Track("stale", 1)
		var ok bool
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok, err = l.LoadFrom(disk, "snap")
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || len(l.files) != 0 {
				t.Fatalf("failed load: err=%v, %d files left", err, len(l.files))
			}
			return
		}
		if !ok {
			t.Fatal("LoadFrom of an existing file reported no snapshot")
		}
		if err := l.SaveTo(disk, "again"); err != nil {
			t.Fatal(err)
		}
		l2 := New(nil)
		if _, err := l2.LoadFrom(disk, "again"); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if !reflect.DeepEqual(l.files, l2.files) {
			t.Fatal("save/load of a loaded log is not stable")
		}
	})
}
