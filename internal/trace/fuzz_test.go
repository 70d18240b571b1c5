package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/vfs"
)

func fuzzSeedsLoad(tb testing.TB) [][]byte {
	tr := &Trace{
		Name: "seed", Desc: "fuzz seed", UpdateBytes: 3, WriteBytes: 5,
		Setup: func(fs vfs.FS) error {
			if err := fs.Create("a"); err != nil {
				return err
			}
			return fs.WriteAt("a", 0, []byte("hello"))
		},
		Run: func(emit Emit) error {
			if err := emit(vfs.Op{Kind: vfs.OpWrite, Path: "a", Off: 1, Data: []byte("abc")}, time.Millisecond); err != nil {
				return err
			}
			return emit(vfs.Op{Kind: vfs.OpRename, Path: "a", Dst: "b"}, 2*time.Millisecond)
		},
	}
	var buf bytes.Buffer
	if err := Save(tr, &buf); err != nil {
		tb.Fatal(err)
	}
	good := buf.Bytes()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 2
	return [][]byte{good, good[:len(good)-9], flipped, {}}
}

// Load decodes untrusted trace files: any input must give a trace or an
// error — never a panic, never an allocation out of proportion to the
// input. Seeds live in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeedsLoad(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		// An accepted trace whose setup replays saves to a file that loads
		// to the same ops (a decodable setup can still name impossible
		// operations; Save reports those when it replays them).
		var buf bytes.Buffer
		if err := Save(tr, &buf); err != nil {
			return
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-saved trace does not load: %v", err)
		}
		ops1, at1, err1 := Collect(tr)
		ops2, at2, err2 := Collect(again)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(at1, at2) {
			t.Fatal("save/load of a loaded trace is not stable")
		}
	})
}
