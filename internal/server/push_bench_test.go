package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/version"
	"repro/internal/wire"
)

// BenchmarkPushEncoded measures Server.PushEncoded on its own, without the
// transport or a journal: every parallel goroutine is one client in its own
// sharing group (no forwarding, no conflict history) pushing keyed 256-byte
// full-file batches over eight paths no other goroutine touches. At 1 shard
// every push serializes on one file-state lock; at 64 shards disjoint paths
// mostly take different locks. Allocs/op include the three the caller pays
// to build each batch (node, batch, encoded wrapper).
func BenchmarkPushEncoded(b *testing.B) {
	const paths = 8
	payload := randBytes(1, 256)
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewWithOptions(nil, Options{Shards: shards})
			var groups atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				cli := s.RegisterGroup(groups.Add(1))
				names := make([]string, paths)
				for i := range names {
					names[i] = fmt.Sprintf("c%d/f%d", cli, i)
				}
				var vers [paths]version.ID
				for seq := uint64(1); pb.Next(); seq++ {
					p := seq % paths
					n := &wire.Node{Kind: wire.NFull, Path: names[p], Base: vers[p], Ver: v(cli, seq), Full: payload}
					eb := wire.NewEncodedBatch(&wire.Batch{Client: cli, Seq: seq, Nodes: []*wire.Node{n}})
					if r := s.PushEncoded(cli, eb); r.Statuses[0] != wire.StatusOK {
						b.Errorf("push %d: %+v", seq, r)
						return
					}
					vers[p] = n.Ver
				}
			})
		})
	}
}
