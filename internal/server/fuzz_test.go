package server

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// Load is a trust boundary for whatever bytes sit in the -state file: any
// input must give a loaded server or an error — never a panic, and never an
// allocation out of proportion to the input. Seeds live in
// testdata/fuzz/FuzzLoad; run with go test -fuzz FuzzLoad ./internal/server.

// checkAllocs fails when decode allocates more than a fixed multiple of the
// n input bytes it was given.
func checkAllocs(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*n+4<<20); got > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", n, got, limit)
	}
}

func fuzzSeedsLoad(tb testing.TB) [][]byte {
	s := New(nil)
	a, b := s.RegisterGroup(3), s.RegisterGroup(3)
	if r := s.Push(a, keyedBatch(a, 1, "d/f", []byte("content"))); r.Statuses[0] != wire.StatusOK {
		tb.Fatalf("seed push: %+v", r)
	}
	if r := s.Push(b, &wire.Batch{Client: b, Nodes: []*wire.Node{{Kind: wire.NCDC, Path: "c", Ver: v(b, 1),
		Chunks: []wire.ChunkRef{{Hash: [16]byte{9}, Len: 3, Data: []byte("abc")}}}}}); r.Statuses[0] != wire.StatusOK {
		tb.Fatalf("seed push: %+v", r)
	}
	var good, empty bytes.Buffer
	if err := s.Save(&good); err != nil {
		tb.Fatal(err)
	}
	if err := New(nil).Save(&empty); err != nil {
		tb.Fatal(err)
	}
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)/2] ^= 1
	return [][]byte{good.Bytes(), empty.Bytes(), good.Bytes()[:good.Len()/2], flipped, {}}
}

func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeedsLoad(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(nil)
		var err error
		checkAllocs(t, len(data), func() { err = s.Load(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		// An accepted snapshot re-saves to a canonical form that is a
		// fixpoint of Load → Save.
		var once, twice bytes.Buffer
		if err := s.Save(&once); err != nil {
			t.Fatal(err)
		}
		s2 := New(nil)
		if err := s2.Load(bytes.NewReader(once.Bytes())); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if err := s2.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Load → Save is not a fixpoint")
		}
	})
}
