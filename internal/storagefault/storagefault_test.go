package storagefault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOSPassthroughRoundTrip exercises the default FS against a real
// directory: the indirection must behave exactly like the os package.
func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "sub", "a.tmp")
	f, err := Create(OS, name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "sub", "a.txt")
	if err := OS.Rename(name, final); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(final)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	st, err := OS.Stat(final)
	if err != nil || st.Size != 5 || st.IsDir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	files, err := OS.List(dir)
	if err != nil || len(files) != 1 || files[0] != "sub/a.txt" {
		t.Fatalf("List = %v, %v", files, err)
	}
}

// TestSimDiskCrashSemantics locks in the durability model: content is
// durable up to the last Sync, names up to the last SyncDir.
func TestSimDiskCrashSemantics(t *testing.T) {
	d := NewSimDisk()
	f, err := Create(d, "a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" volatile"))
	f.Close()

	// The name "a" itself is still volatile: no SyncDir yet.
	fork := d.Fork(d.Ops())
	fork.Crash()
	if _, err := fork.ReadFile("a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("un-SyncDir'd name survived the crash: %v", err)
	}

	if err := d.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	fork = d.Fork(d.Ops())
	fork.Crash()
	b, err := fork.ReadFile("a")
	if err != nil || string(b) != "durable" {
		t.Fatalf("after crash ReadFile = %q, %v; want only the fsynced prefix", b, err)
	}
}

// TestSimDiskRenameDurability: a rename is visible immediately but durable
// only after SyncDir — a crash in between resurrects the old name.
func TestSimDiskRenameDurability(t *testing.T) {
	d := NewSimDisk()
	f, _ := Create(d, "a.tmp")
	f.Write([]byte("v1"))
	f.Sync()
	f.Close()
	d.SyncDir(".")

	if err := d.Rename("a.tmp", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFile("a"); err != nil {
		t.Fatalf("rename not visible: %v", err)
	}

	fork := d.Fork(d.Ops())
	fork.Crash()
	if _, err := fork.ReadFile("a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rename durable without SyncDir")
	}
	if b, err := fork.ReadFile("a.tmp"); err != nil || string(b) != "v1" {
		t.Fatalf("old name gone after crash: %q, %v", b, err)
	}

	d.SyncDir(".")
	fork = d.Fork(d.Ops())
	fork.Crash()
	if b, err := fork.ReadFile("a"); err != nil || string(b) != "v1" {
		t.Fatalf("rename lost after SyncDir: %q, %v", b, err)
	}
}

// TestSimDiskForkDeterminism: a fork of the full trace reproduces the live
// state byte for byte.
func TestSimDiskForkDeterminism(t *testing.T) {
	d := NewSimDisk()
	d.MkdirAll("x/y", 0o755)
	f, _ := d.OpenFile("x/y/log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	for i := 0; i < 5; i++ {
		f.Write([]byte{byte(i), byte(i + 1)})
	}
	f.Sync()
	f.Truncate(4)
	f.Close()
	d.SyncDir("x/y")
	d.Link("x/y/log", "x/y/log2")
	d.Truncate("x/y/log2", 2)

	fork := d.Fork(d.Ops())
	for _, name := range []string{"x/y/log", "x/y/log2"} {
		want, err1 := d.ReadFile(name)
		got, err2 := fork.ReadFile(name)
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			t.Fatalf("%s: fork %q (%v) != live %q (%v)", name, got, err2, want, err1)
		}
	}
	// Hard link: both names share the inode, so the FS.Truncate through
	// log2 must show through log as well.
	if b, _ := d.ReadFile("x/y/log"); len(b) != 2 {
		t.Fatalf("hard link not shared: %q", b)
	}
}

// TestSimDiskCrashTorn: a torn crash keeps a prefix of the un-fsynced
// suffix, never invents bytes, never loses fsynced ones.
func TestSimDiskCrashTorn(t *testing.T) {
	d := NewSimDisk()
	f, _ := Create(d, "wal")
	f.Write([]byte("AAAA"))
	f.Sync()
	f.Write([]byte("BBBBBBBB"))
	f.Close()
	d.SyncDir(".")

	seen := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		fork := d.Fork(d.Ops())
		fork.CrashTorn(seed)
		b, err := fork.ReadFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 4 || len(b) > 12 || string(b[:4]) != "AAAA" {
			t.Fatalf("torn crash produced %q", b)
		}
		for _, c := range b[4:] {
			if c != 'B' {
				t.Fatalf("torn crash invented bytes: %q", b)
			}
		}
		seen[len(b)] = true
	}
	if len(seen) < 2 {
		t.Fatal("torn crash never varied the kept prefix across seeds")
	}
}

// TestInjectorFsyncgate: the scheduled Sync fails once, and from then on
// the file is poisoned — no retry may report clean, no write may land.
func TestInjectorFsyncgate(t *testing.T) {
	in := NewInjector(NewSimDisk(), Plan{Seed: 1, FailSyncAt: 2})
	f, err := Create(in, "wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("one"))
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	f.Write([]byte("two"))
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("second sync = %v, want ErrSyncFailed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("retry after failed sync = %v, want ErrPoisoned (fsyncgate)", err)
	}
	if _, err := f.Write([]byte("three")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("write after failed sync = %v, want ErrPoisoned", err)
	}
	// A fresh handle on the same name is poisoned too: the page cache,
	// not the descriptor, lost the data.
	g, err := Create(in, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("new handle sync = %v, want ErrPoisoned", err)
	}
	st := in.Stats()
	if st.FailedSyncs != 1 || st.PoisonedOps == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInjectorTornWrite: the scheduled write lands only a prefix.
func TestInjectorTornWrite(t *testing.T) {
	d := NewSimDisk()
	in := NewInjector(d, Plan{Seed: 7, TornWriteAt: 2})
	f, _ := Create(in, "log")
	if _, err := f.Write([]byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("BBBB"))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("torn write err = %v", err)
	}
	if n < 0 || n >= 4 {
		t.Fatalf("torn write landed %d of 4 bytes", n)
	}
	b, _ := d.ReadFile("log")
	if len(b) != 4+n {
		t.Fatalf("file holds %d bytes, want %d", len(b), 4+n)
	}
}

// TestInjectorNoSpace: the byte budget turns into ENOSPC, with the
// crossing write landing partially like a real full disk.
func TestInjectorNoSpace(t *testing.T) {
	d := NewSimDisk()
	in := NewInjector(d, Plan{Seed: 3, WriteBudget: 6})
	f, _ := Create(in, "log")
	if _, err := f.Write([]byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("BBBB"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if n != 2 {
		t.Fatalf("crossing write landed %d bytes, want 2", n)
	}
	if _, err := f.Write([]byte("C")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("post-budget write = %v, want ErrNoSpace", err)
	}
}

// TestInjectorCorruptReads: every non-empty read has exactly one bit
// flipped, deterministically per seed.
func TestInjectorCorruptReads(t *testing.T) {
	d := NewSimDisk()
	f, _ := Create(d, "data")
	payload := bytes.Repeat([]byte{0x55}, 64)
	f.Write(payload)
	f.Close()

	in := NewInjector(d, Plan{Seed: 11, CorruptReads: true})
	got1, err := in.ReadFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got1, payload) {
		t.Fatal("corrupting read returned clean data")
	}
	diff := 0
	for i := range payload {
		if got1[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	in2 := NewInjector(d, Plan{Seed: 11, CorruptReads: true})
	got2, _ := in2.ReadFile("data")
	if !bytes.Equal(got1, got2) {
		t.Fatal("same seed produced different corruption")
	}
}

// TestAtomicReplaceDiscipline proves ReplaceFile's
// write→fsync→rename→dirsync recipe is exactly what survives a crash at
// every one of its IO prefixes: the reader sees the old content or the new
// content, never a torn mix.
func TestAtomicReplaceDiscipline(t *testing.T) {
	d := NewSimDisk()
	write := func(name, content string) {
		err := ReplaceFile(d, name, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write("state", "old-old-old")
	mark := d.Ops()
	write("state", "new-new-new")

	for k := mark; k <= d.Ops(); k++ {
		fork := d.Fork(k)
		fork.Crash()
		b, err := fork.ReadFile("state")
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if s := string(b); s != "old-old-old" && s != "new-new-new" {
			t.Fatalf("prefix %d: torn state %q", k, s)
		}
	}
}
