package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/frame"
	"repro/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	content := randBytes(60, 30000)
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "doc", Full: content, Ver: v(cli, 1)}))
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NMkdir, Path: "dir"}))
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCDC, Path: "chunked",
		Chunks: []wire.ChunkRef{{Hash: [16]byte{7}, Len: 5, Data: []byte("hello")}}, Ver: v(cli, 2)}))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New(nil)
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.FileContent("doc")
	if !ok || !bytes.Equal(got, content) {
		t.Fatal("file content lost across save/load")
	}
	if s2.Version("doc") != v(cli, 1) {
		t.Fatalf("version = %v", s2.Version("doc"))
	}
	// The chunk store survives: a reference-only upload resolves.
	cli2 := s2.Register()
	mustOK(t, push(t, s2, cli2, &wire.Node{Kind: wire.NCDC, Path: "copy",
		Chunks: []wire.ChunkRef{{Hash: [16]byte{7}, Len: 5}}, Base: s2.Version("copy"), Ver: v(cli2, 1)}))
	cp, _ := s2.FileContent("copy")
	if !bytes.Equal(cp, []byte("hello")) {
		t.Fatal("chunk store lost across save/load")
	}
	// A reconnecting client continues the version chain.
	mustOK(t, push(t, s2, cli2, &wire.Node{Kind: wire.NWrite, Path: "doc",
		Base: v(cli, 1), Ver: v(cli2, 2),
		Extents: []wire.Extent{{Off: 0, Data: []byte("updated")}}}))
}

func TestLoadRefusesAfterRegister(t *testing.T) {
	s := New(nil)
	var buf bytes.Buffer
	if err := New(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	s.Register()
	if err := s.Load(&buf); err == nil {
		t.Fatal("Load succeeded after a client registered")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := New(nil)
	if err := s.Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.db")

	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "f",
		Full: []byte("persisted"), Ver: v(cli, 1)}))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	s2 := New(nil)
	loaded, err := s2.LoadFile(path)
	if err != nil || !loaded {
		t.Fatalf("LoadFile = %v, %v", loaded, err)
	}
	got, _ := s2.FileContent("f")
	if !bytes.Equal(got, []byte("persisted")) {
		t.Fatal("content lost across file round trip")
	}

	// A refused snapshot is named in the error and installs nothing.
	bad := filepath.Join(t.TempDir(), "refused.db")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := New(nil)
	if loaded, err := s4.LoadFile(bad); loaded || err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("LoadFile(refused) = %v, %v; want an error naming %s", loaded, err, bad)
	}
	assertFresh(t, s4)

	// Missing file: fresh server, no error.
	s3 := New(nil)
	loaded, err = s3.LoadFile(filepath.Join(t.TempDir(), "absent.db"))
	if err != nil || loaded {
		t.Fatalf("LoadFile(absent) = %v, %v", loaded, err)
	}
}

func TestAppliedLogSurvivesReload(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NCreate, Path: "a", Ver: v(cli, 1)}))
	var buf bytes.Buffer
	s.Save(&buf)
	s2 := New(nil)
	s2.Load(&buf)
	log := s2.AppliedLog()
	if len(log) != 1 || log[0].Path != "a" {
		t.Fatalf("AppliedLog = %+v", log)
	}
}

// richServer builds a state touching every snapshot record kind: several
// clients (three in one sharing group, one bare keyed pusher), 64 paths, a
// directory, dedup replies (including a conflict), resident chunks and the
// applied log.
func richServer(t *testing.T) *Server {
	t.Helper()
	s := New(nil)
	group := []uint32{s.RegisterGroup(9), s.RegisterGroup(9), s.RegisterGroup(9)}
	bare := s.Register()
	for i := 0; i < 64; i++ {
		cli := group[i%len(group)]
		b := keyedBatch(cli, uint64(i/len(group)+1), fmt.Sprintf("dir%d/f%02d", i%4, i), randBytes(int64(i), 100+i*37))
		if r := s.Push(cli, b); r.Statuses[0] != wire.StatusOK {
			t.Fatalf("push %d: %+v", i, r)
		}
	}
	mustOK(t, push(t, s, bare, &wire.Node{Kind: wire.NMkdir, Path: "sub"}))
	mustOK(t, push(t, s, bare, &wire.Node{Kind: wire.NCDC, Path: "sub/chunked", Ver: v(bare, 1),
		Chunks: []wire.ChunkRef{
			{Hash: [16]byte{1}, Len: 5, Data: []byte("hello")},
			{Hash: [16]byte{2}, Len: 6, Data: []byte(" world")},
		}}))
	// A stale-base keyed write: the cached reply carries a conflict path.
	stale := &wire.Batch{Client: bare, Seq: 1, Nodes: []*wire.Node{{Kind: wire.NFull, Path: "dir0/f00",
		Full: []byte("fork"), Base: v(bare, 99), Ver: v(bare, 2)}}}
	if r := s.Push(bare, stale); len(r.Conflicts) == 0 {
		t.Fatalf("stale push did not conflict: %+v", r)
	}
	return s
}

func saveBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Equal states must give equal bytes: Save has no map-order dependence, and
// a loaded snapshot re-saves to exactly the bytes it was loaded from.
func TestSnapshotBytesAreCanonical(t *testing.T) {
	s := richServer(t)
	first := saveBytes(t, s)
	if second := saveBytes(t, s); !bytes.Equal(first, second) {
		t.Fatal("two Saves of one state differ")
	}
	s2 := New(nil)
	if err := s2.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if again := saveBytes(t, s2); !bytes.Equal(first, again) {
		t.Fatal("Save → Load → Save does not reproduce the snapshot")
	}
}

// Snapshots are shard-agnostic: one saved by a 64-shard server loads into a
// 1-shard and a 4-shard server with every observable unchanged, and each
// re-saves to exactly the source bytes.
func TestSnapshotRestoresAcrossShardCounts(t *testing.T) {
	src := New(nil)
	if src.ShardCount() != 64 {
		t.Fatalf("source has %d shards, want 64", src.ShardCount())
	}
	a, b := src.RegisterGroup(7), src.RegisterGroup(7)
	for i := 0; i < 40; i++ {
		mustOK(t, push(t, src, a, &wire.Node{Kind: wire.NFull, Path: fmt.Sprintf("d%d/f%02d", i%3, i),
			Full: randBytes(int64(i), 50+i), Ver: v(a, uint64(i+1))}))
	}
	mustOK(t, push(t, src, a, &wire.Node{Kind: wire.NMkdir, Path: "d0"}, &wire.Node{Kind: wire.NMkdir, Path: "d1"}))
	chunks := []wire.ChunkRef{
		{Hash: [16]byte{1}, Len: 5, Data: []byte("hello")},
		{Hash: [16]byte{2}, Len: 6, Data: []byte(" world")},
	}
	mustOK(t, push(t, src, b, &wire.Node{Kind: wire.NCDC, Path: "d2/chunked", Chunks: chunks, Ver: v(b, 1)}))
	// Both members edit d0/f00 from its first version; b loses and gets a
	// conflict copy.
	mustOK(t, push(t, src, a, &wire.Node{Kind: wire.NWrite, Path: "d0/f00", Base: v(a, 1), Ver: v(a, 41),
		Extents: []wire.Extent{{Off: 0, Data: []byte("A")}}}))
	r := push(t, src, b, &wire.Node{Kind: wire.NWrite, Path: "d0/f00", Base: v(a, 1), Ver: v(b, 2),
		Extents: []wire.Extent{{Off: 1, Data: []byte("B")}}})
	if len(r.Conflicts) != 1 {
		t.Fatalf("stale write did not make one conflict copy: %+v", r)
	}
	snap := saveBytes(t, src)

	for _, shards := range []int{1, 4} {
		dst := NewWithOptions(nil, Options{Shards: shards})
		if err := dst.Load(bytes.NewReader(snap)); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(src.Files(), dst.Files()) {
			t.Fatalf("%d shards: files %v, want %v", shards, dst.Files(), src.Files())
		}
		if !reflect.DeepEqual(src.Dirs(), dst.Dirs()) {
			t.Fatalf("%d shards: dirs %v, want %v", shards, dst.Dirs(), src.Dirs())
		}
		for _, p := range append(src.Files(), "absent") {
			sv, sok := src.Head(p)
			dv, dok := dst.Head(p)
			if sv != dv || sok != dok {
				t.Fatalf("%d shards: Head(%s) = %v %v, want %v %v", shards, p, dv, dok, sv, sok)
			}
			sc, _ := src.FileContent(p)
			dc, _ := dst.FileContent(p)
			if !bytes.Equal(sc, dc) {
				t.Fatalf("%d shards: %s content differs", shards, p)
			}
		}
		if !reflect.DeepEqual(src.AppliedLog(), dst.AppliedLog()) {
			t.Fatalf("%d shards: applied log differs", shards)
		}
		for _, h := range []block.Strong{{1}, {2}, {3}} {
			sd, sok := src.chunk(h)
			dd, dok := dst.chunk(h)
			if sok != dok || !bytes.Equal(sd, dd) {
				t.Fatalf("%d shards: chunk %x resolves to %q %v, want %q %v", shards, h[:1], dd, dok, sd, sok)
			}
		}
		if again := saveBytes(t, dst); !bytes.Equal(snap, again) {
			t.Fatalf("%d shards: re-Save differs from the source snapshot", shards)
		}
	}
}

// assertFresh checks that a failed Load installed nothing.
func assertFresh(t *testing.T, s *Server) {
	t.Helper()
	if files := s.Files(); len(files) != 0 {
		t.Fatalf("failed Load left files behind: %v", files)
	}
	if len(s.AppliedLog()) != 0 {
		t.Fatal("failed Load left applied-log entries behind")
	}
	if id := s.Register(); id != 1 {
		t.Fatalf("failed Load advanced the client counter: Register = %d", id)
	}
}

func TestLoadRejectsFlippedContentBit(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	content := randBytes(3, 4096)
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "doc", Full: content, Ver: v(cli, 1)}))
	snap := saveBytes(t, s)
	at := bytes.Index(snap, content)
	if at < 0 {
		t.Fatal("file content not found in the snapshot")
	}
	snap[at+len(content)/2] ^= 0x10
	s2 := New(nil)
	if err := s2.Load(bytes.NewReader(snap)); err == nil {
		t.Fatal("Load accepted a snapshot with a flipped content bit")
	}
	assertFresh(t, s2)
}

// frameEnds returns the offset just past every frame in a snapshot.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for rest := data; len(rest) > 0; {
		_, next, err := frame.Next(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		ends = append(ends, len(data)-len(rest))
	}
	return ends
}

func TestLoadRejectsSnapshotCutAtFrameBoundary(t *testing.T) {
	snap := saveBytes(t, richServer(t))
	ends := frameEnds(t, snap)
	for _, end := range ends[:len(ends)-1] {
		s := New(nil)
		if err := s.Load(bytes.NewReader(snap[:end])); err == nil {
			t.Fatalf("Load accepted a snapshot cut after %d of %d bytes", end, len(snap))
		}
		assertFresh(t, s)
	}
}

func TestLoadRefusesOtherSnapshotVersions(t *testing.T) {
	for _, ver := range []uint32{0, 1, 2, 3, snapshotVersion + 1} {
		var buf bytes.Buffer
		var fw frame.Writer
		fw.Header(snapshotMagic, ver)
		fw.End()
		if err := fw.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		s := New(nil)
		err := s.Load(&buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) {
			t.Fatalf("version %d: Load error = %v, want a refusal naming the version", ver, err)
		}
		assertFresh(t, s)
	}
}

// File content longer than the split size spans continuation frames and
// round-trips exactly.
func TestSnapshotSplitsLongContent(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	big := randBytes(5, 2*frame.SplitSize+123)
	mustOK(t, push(t, s, cli, &wire.Node{Kind: wire.NFull, Path: "big", Full: big, Ver: v(cli, 1)}))
	snap := saveBytes(t, s)
	small := saveBytes(t, New(nil))
	if got, min := len(frameEnds(t, snap))-len(frameEnds(t, small)), 4; got < min {
		t.Fatalf("big file added %d frames, want at least %d (record + 3 continuations)", got, min)
	}
	s2 := New(nil)
	if err := s2.Load(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.FileContent("big"); !ok || !bytes.Equal(got, big) {
		t.Fatal("long content lost across save/load")
	}
}
