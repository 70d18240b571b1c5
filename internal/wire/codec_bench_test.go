package wire

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/version"
)

// benchBatch builds a push-shaped batch: n write nodes carrying extentBytes
// of payload each — small (metadata-dominated), medium (one screenful of
// edits), large (bulk upload) in the benchmarks below.
func benchBatch(n, extentBytes int) *Batch {
	rng := rand.New(rand.NewSource(42))
	b := &Batch{Client: 3, Seq: 99, Nodes: make([]*Node, 0, n)}
	for i := 0; i < n; i++ {
		data := make([]byte, extentBytes)
		rng.Read(data)
		b.Nodes = append(b.Nodes, &Node{
			Kind: NWrite,
			Path: fmt.Sprintf("dir/sub/file-%04d.dat", i),
			Size: int64(extentBytes),
			Base: version.ID{Client: 3, Count: uint64(i)},
			Ver:  version.ID{Client: 3, Count: uint64(i + 1)},
			Extents: []Extent{
				{Off: int64(i * extentBytes), Data: data},
			},
		})
	}
	return b
}

var benchSizes = []struct {
	name         string
	nodes, bytes int
}{
	{"small", 1, 64},        // one tiny edit
	{"medium", 8, 4 << 10},  // a batch of 4 KiB writes
	{"large", 64, 64 << 10}, // bulk upload burst
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, sz := range benchSizes {
		batch := benchBatch(sz.nodes, sz.bytes)
		b.Run(sz.name, func(b *testing.B) {
			buf := AppendBatch(nil, batch)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendBatch(buf[:0], batch)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, sz := range benchSizes {
		batch := benchBatch(sz.nodes, sz.bytes)
		raw := AppendBatch(nil, batch)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBatchPayload(raw, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
