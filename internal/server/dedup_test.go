package server

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/version"
	"repro/internal/wire"
)

func keyedBatch(cli uint32, seq uint64, path string, content []byte) *wire.Batch {
	return &wire.Batch{Client: cli, Seq: seq, Nodes: []*wire.Node{{
		Kind: wire.NFull, Path: path, Full: content,
		Ver: v(cli, uint64(seq)),
	}}}
}

func TestPushDedupsReplayedSeq(t *testing.T) {
	s := New(nil)
	sm := &metrics.SyncMeter{}
	s.SetSyncMeter(sm)
	cli := s.Register()

	b := keyedBatch(cli, 1, "f", []byte("once"))
	first := s.Push(cli, b)
	if first.Statuses[0] != wire.StatusOK {
		t.Fatalf("first push: %+v", first)
	}
	replay := s.Push(cli, b)
	if replay != first {
		t.Fatal("replay not answered from the reply cache")
	}
	if got, _ := s.FileContent("f"); !bytes.Equal(got, []byte("once")) {
		t.Fatalf("content = %q", got)
	}
	if sm.DedupHits() != 1 {
		t.Fatalf("DedupHits = %d, want 1", sm.DedupHits())
	}
	if d := s.DuplicateApplies(); d != 0 {
		t.Fatalf("DuplicateApplies = %d, want 0", d)
	}
	// A replay must not be re-forwarded to other clients.
	other := s.Register()
	s.Push(cli, keyedBatch(cli, 2, "g", []byte("fwd")))
	s.Push(cli, keyedBatch(cli, 2, "g", []byte("fwd")))
	if got := s.Poll(other); len(got) != 1 {
		t.Fatalf("other client polled %d batches, want 1", len(got))
	}
}

func TestPushDedupPastReplyCacheWindow(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	chained := func(seq uint64) *wire.Batch {
		b := keyedBatch(cli, seq, "f", []byte{byte(seq)})
		b.Nodes[0].Base = v(cli, seq-1) // zero base for seq 1
		if seq == 1 {
			b.Nodes[0].Base = version.ID{}
		}
		return b
	}
	for seq := uint64(1); seq <= ReplyCacheDepth+2; seq++ {
		r := s.Push(cli, chained(seq))
		if r.Statuses[0] != wire.StatusOK {
			t.Fatalf("seq %d: %+v", seq, r)
		}
	}
	// Seq 1 has been evicted from the reply cache, but the replay is still
	// detected and must not re-apply (which would clobber f with old bytes).
	r := s.Push(cli, chained(1))
	if r.Err != "" || len(r.Statuses) != 1 {
		t.Fatalf("evicted replay reply: %+v", r)
	}
	got, _ := s.FileContent("f")
	if !bytes.Equal(got, []byte{ReplyCacheDepth + 2}) {
		t.Fatalf("evicted replay re-applied: f = %v", got)
	}
	if d := s.DuplicateApplies(); d != 0 {
		t.Fatalf("DuplicateApplies = %d, want 0", d)
	}
}

func TestPushSeqZeroBypassesDedup(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	b := &wire.Batch{Client: cli, Nodes: []*wire.Node{{Kind: wire.NCreate, Path: "a", Ver: v(cli, 1)}}}
	s.Push(cli, b)
	b2 := &wire.Batch{Client: cli, Nodes: []*wire.Node{{Kind: wire.NWrite, Path: "a",
		Base: v(cli, 1), Ver: v(cli, 2),
		Extents: []wire.Extent{{Data: []byte("x")}}}}}
	if r := s.Push(cli, b2); r.Statuses[0] != wire.StatusOK {
		t.Fatalf("unkeyed pushes must not dedup: %+v", r)
	}
}

func TestAttachExtendsClientIDSpace(t *testing.T) {
	s := New(nil)
	s.Attach(7)
	if got := s.Register(); got != 8 {
		t.Fatalf("Register after Attach(7) = %d, want 8", got)
	}
	// Attaching an already-known ID changes nothing.
	s.Attach(3)
	if got := s.Register(); got != 9 {
		t.Fatalf("Register after Attach(3) = %d, want 9", got)
	}
	// An attached client can be polled without a prior Register.
	if got := s.Poll(7); got != nil {
		t.Fatalf("Poll(attached) = %v", got)
	}
}

// TestDedupSurvivesCrashRestart models the crash window satellite: the
// server applies a keyed batch and snapshots (the paper's wimpy-server
// snapshot policy), then dies before the client sees the reply. The client
// replays the batch against the restarted server; the reply cache and
// applied-seq audit trail must have survived so the replay is absorbed, not
// re-applied.
func TestDedupSurvivesCrashRestart(t *testing.T) {
	s := New(nil)
	cli := s.Register()
	b := keyedBatch(cli, 1, "f", []byte("applied-pre-crash"))
	first := s.Push(cli, b)
	if first.Statuses[0] != wire.StatusOK {
		t.Fatalf("push: %+v", first)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}

	// "Crash": the server object is discarded; a fresh one loads the
	// snapshot and the client reattaches with its old ID.
	s2 := New(nil)
	sm := &metrics.SyncMeter{}
	s2.SetSyncMeter(sm)
	if err := s2.Load(&snap); err != nil {
		t.Fatal(err)
	}
	s2.Attach(cli)

	replay := s2.Push(cli, b)
	if len(replay.Statuses) != 1 || replay.Statuses[0] != wire.StatusOK || replay.Err != "" {
		t.Fatalf("replay after restart: %+v", replay)
	}
	if sm.DedupHits() != 1 {
		t.Fatalf("DedupHits after restart = %d, want 1", sm.DedupHits())
	}
	if d := s2.DuplicateApplies(); d != 0 {
		t.Fatalf("DuplicateApplies after restart = %d, want 0", d)
	}
	// The restored ID space must not hand the reattached ID to a newcomer.
	if got := s2.Register(); got != cli+1 {
		t.Fatalf("Register after restart = %d, want %d", got, cli+1)
	}
	// And new keyed pushes continue the chain normally.
	if r := s2.Push(cli, keyedBatch(cli, 2, "f2", []byte("post-crash"))); r.Statuses[0] != wire.StatusOK {
		t.Fatalf("post-restart push: %+v", r)
	}
}
