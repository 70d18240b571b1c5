package kvstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/storagefault"
)

func fuzzSeedsRecords(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, i*5)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k1")); err != nil {
		tb.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		tb.Fatal(err)
	}
	wal, err := storagefault.OS.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		tb.Fatal(err)
	}
	snap, err := storagefault.OS.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	torn := append([]byte(nil), wal[:len(wal)-3]...)
	return [][]byte{wal, snap, torn, snap[:len(snap)-9], {}}
}

// The record reader decodes whatever sits in the WAL and snapshot files:
// any input must replay a prefix (WAL) or decode-or-fail (snapshot) without
// panicking or allocating out of proportion to the input. Seeds live in
// testdata/fuzz/FuzzReadRecords.
func FuzzReadRecords(f *testing.F) {
	for _, seed := range fuzzSeedsRecords(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		table := make(map[string][]byte)
		replayRecords(data, table)
		snap, err := decodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		// A decodable snapshot re-encodes to one that decodes the same.
		var out bytes.Buffer
		if err := writeSnapshot(&out, snap); err != nil {
			t.Fatal(err)
		}
		again, err := decodeSnapshot(out.Bytes())
		if err != nil || !reflect.DeepEqual(again, snap) {
			t.Fatalf("re-encoded snapshot does not round-trip: %v", err)
		}
	})
}
