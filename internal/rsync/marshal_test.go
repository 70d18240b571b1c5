package rsync_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rsync"
	"repro/internal/wire"
)

// Deltas are serialised only by the wire codec: these tests marshal a delta
// inside a batch node and check that what comes back still patches.

func marshalDelta(t *testing.T, d *rsync.Delta) ([]byte, *rsync.Delta) {
	t.Helper()
	raw := wire.AppendBatch(nil, &wire.Batch{Nodes: []*wire.Node{{Kind: wire.NDelta, Path: "f", Delta: d}}})
	b, err := wire.DecodeBatchPayload(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	return raw, b.Nodes[0].Delta
}

func TestMarshalRoundTrip(t *testing.T) {
	base := make([]byte, 50000)
	rand.New(rand.NewSource(19)).Read(base)
	target := append([]byte(nil), base...)
	rand.New(rand.NewSource(20)).Read(target[100:600])
	d := rsync.DeltaLocal(base, target, 4096, nil)

	raw, d2 := marshalDelta(t, d)
	got, err := rsync.Patch(base, d2, nil)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("marshalled delta did not reconstruct target: %v", err)
	}
	if int64(len(raw)) > d.WireSize()+1024 {
		t.Fatalf("encoded size %d exceeds WireSize estimate %d", len(raw), d.WireSize())
	}
}

// Property: marshal/unmarshal is the identity on deltas.
func TestDeltaMarshalProperty(t *testing.T) {
	f := func(base, target []byte) bool {
		_, d := marshalDelta(t, rsync.DeltaLocal(base, target, 64, nil))
		out, err := rsync.Patch(base, d, nil)
		return err == nil && bytes.Equal(out, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
