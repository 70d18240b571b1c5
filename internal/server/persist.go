package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"

	"repro/internal/block"
	"repro/internal/frame"
	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/wire"
)

// The paper leaves the server-side system design to future work (§VI),
// envisioning wimpy machines fronting large disks. This file provides the
// piece a deployable server minimally needs: durable state. Save serializes
// the full server state (files, versions, the bounded chunk store) and Load
// restores it, so cmd/deltacfs-server can persist across restarts with a
// snapshot-on-shutdown (plus periodic) policy. Client outboxes are volatile
// by design: a reconnecting client re-syncs via Head metadata.
//
// The snapshot format is shard-agnostic: shards are merged on Save and
// redistributed on Load, so snapshots move freely between servers with
// different shard counts (including the 1-shard oracle configuration).
//
// The snapshot is an internal/frame sequence: a header frame (magic,
// version), then tagged records in a canonical order — the client counter,
// files by path (content longer than frame.SplitSize spans continuation
// frames), directories by path, resident chunks in eviction (FIFO) order,
// the applied-op log in commit order, per-client idempotency state and
// group membership by client ID — and an end frame counting the frames, so
// a snapshot cut at a frame boundary is refused. Equal states give equal
// bytes. Any other version is refused: a layout change bumps it, and no
// snapshot format is converted.
const (
	snapshotMagic   = "deltacfs server snapshot"
	snapshotVersion = 4

	tagNextClient = 1 // u32 next client ID
	tagFile       = 2 // path, version, long content
	tagDir        = 3 // path
	tagChunk      = 4 // strong hash, long data
	tagApplied    = 5 // node kind, path
	tagClient     = 6 // id, group presence + id, max seq, replies, applied seqs
)

// snapshot is a fully decoded snapshot, verified before anything installs.
type snapshot struct {
	nextClient uint32
	files      map[string][]byte
	vers       map[string]version.ID
	dirs       []string
	chunks     []chunkRec // FIFO order
	applied    []AppliedOp
	clients    []snapshotClient
}

// snapshotClient is one client's idempotency state and group membership.
type snapshotClient struct {
	id     uint32
	cs     *clientState
	member bool
	group  uint32
}

type chunkRec struct {
	h    block.Strong
	data []byte
}

// Save writes the server's durable state to w. The state is encoded in
// memory under the quiesce set and written once the server is released.
func (s *Server) Save(w io.Writer) error {
	fw := s.encodeQuiesced()
	if err := fw.Flush(w); err != nil {
		return fmt.Errorf("server: save: %w", err)
	}
	return nil
}

// encodeQuiesced encodes the snapshot with the server quiesced: per-client
// push locks are taken in ascending client-ID order, then every shard lock
// (the same outermost-first order Push uses, so a snapshot can never
// deadlock with in-flight batches).
func (s *Server) encodeQuiesced() *frame.Writer {
	refs := s.clientSnapshot()
	for _, ref := range refs {
		ref.cs.pushMu.Lock()
	}
	defer func() {
		for i := len(refs) - 1; i >= 0; i-- {
			refs[i].cs.pushMu.Unlock()
		}
	}()
	s.lockAllShards()
	defer s.unlockAllShards()
	s.clientMu.RLock()
	nextClient := s.nextClient
	groups := make(map[uint32]uint32)
	for gid, gi := range s.groups {
		for id := range gi.members {
			groups[id] = gid
		}
	}
	s.clientMu.RUnlock()
	s.chunkMu.Lock()
	defer s.chunkMu.Unlock()
	fw := &frame.Writer{}
	fw.Header(snapshotMagic, snapshotVersion)
	fw.Emit(frame.AppendU32(append(fw.Begin(), tagNextClient), nextClient))

	var paths, dirs []string
	for _, sh := range s.shards {
		for p := range sh.files {
			paths = append(paths, p)
		}
		for p := range sh.dirs {
			dirs = append(dirs, p)
		}
	}
	sort.Strings(paths)
	sort.Strings(dirs)
	for _, p := range paths {
		sh := s.shard(p)
		b := frame.AppendStr(append(fw.Begin(), tagFile), p)
		fw.EmitLong(wire.AppendVersion(b, sh.getVer(p)), sh.files[p])
	}
	for _, p := range dirs {
		fw.Emit(frame.AppendStr(append(fw.Begin(), tagDir), p))
	}
	// The FIFO is exactly the resident set in insertion order, so the chunk
	// records carry both the residency map and the eviction order.
	for _, h := range s.chunkFIFO {
		fw.EmitLong(append(append(fw.Begin(), tagChunk), h[:]...), s.chunks[h])
	}
	for _, op := range s.applied.snapshot() {
		fw.Emit(frame.AppendStr(append(fw.Begin(), tagApplied, byte(op.Kind)), op.Path))
	}
	for _, ref := range refs {
		gid, member := groups[ref.id]
		rc := ref.cs.dedup
		if !member && rc.maxSeq == 0 && len(rc.order) == 0 && len(ref.cs.appliedSeqs) == 0 {
			continue
		}
		b := frame.AppendU32(append(fw.Begin(), tagClient), ref.id)
		if member {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = frame.AppendU32(b, gid)
		b = frame.AppendU64(b, rc.maxSeq)
		b = frame.AppendSliceHdr(b, len(rc.order), false)
		for _, seq := range rc.order {
			b = wire.AppendPushReply(frame.AppendU64(b, seq), rc.replies[seq])
		}
		seqs := make([]uint64, 0, len(ref.cs.appliedSeqs))
		for seq := range ref.cs.appliedSeqs {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		b = frame.AppendSliceHdr(b, len(seqs), false)
		for _, seq := range seqs {
			b = frame.AppendI64(frame.AppendU64(b, seq), int64(ref.cs.appliedSeqs[seq]))
		}
		fw.Emit(b)
	}
	fw.End()
	// The quiesce set is still held: every batch the snapshot captured has
	// been journaled (Record runs under shard locks before apply), and no
	// batch can commit until Save returns. Capturing the journal boundary
	// here means TruncateSnapshotted drops exactly the entries the snapshot
	// covers — nothing the snapshot missed. The boundary is only committed
	// durably by SaveFile once the snapshot itself is atomically in place.
	if j := s.journal.Load(); j != nil {
		// Capturing the boundary under the quiesce set is the correctness
		// condition: no batch can journal or commit until Save releases, so
		// the boundary covers exactly what the snapshot holds.
		//deltavet:allow blockunderlock journal boundary must be captured while the snapshot quiesce set is held
		j.captureSnapshot()
	}
	return fw
}

// Minimum encoded sizes bounding the per-client counts a client record
// declares: a reply entry is a seq plus an empty PushReply (two nil-slice
// markers, flags, empty error string), an applied-seq entry two u64s.
const (
	minReplyEntry   = 8 + 1 + 1 + 1 + 4
	minAppliedEntry = 16
)

// decodeSnapshot decodes and verifies a whole snapshot. Nothing is
// installed until every frame has checked out.
func decodeSnapshot(data []byte) (*snapshot, error) {
	sc := frame.NewScanner(data)
	if err := sc.Header(snapshotMagic, snapshotVersion); err != nil {
		return nil, err
	}
	st := &snapshot{
		files: make(map[string][]byte),
		vers:  make(map[string]version.ID),
	}
	for {
		r := sc.Next()
		switch tag := r.U8(); tag {
		case frame.TagEnd:
			if err := sc.End(r); err != nil {
				return nil, err
			}
			return st, nil
		case tagNextClient:
			st.nextClient = r.U32()
			r.Done()
		case tagFile:
			p, v := r.Str(), wire.ReadVersion(r)
			st.files[p] = sc.Long(r)
			if !v.IsZero() {
				st.vers[p] = v
			}
		case tagDir:
			st.dirs = append(st.dirs, r.Str())
			r.Done()
		case tagChunk:
			var c chunkRec
			copy(c.h[:], r.Take(len(c.h)))
			c.data = sc.Long(r)
			st.chunks = append(st.chunks, c)
		case tagApplied:
			st.applied = append(st.applied, AppliedOp{Kind: wire.NodeKind(r.U8()), Path: r.Str()})
			r.Done()
		case tagClient:
			st.clients = append(st.clients, readClient(r))
			r.Done()
		default:
			r.Fail("unknown record tag %d", tag)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
}

func readClient(r *frame.Reader) snapshotClient {
	c := snapshotClient{id: r.U32(), member: r.U8() != 0, group: r.U32(), cs: newClientState()}
	c.cs.dedup.maxSeq = r.U64()
	for i, n := 0, r.Count(minReplyEntry); i < n && r.Err() == nil; i++ {
		seq := r.U64()
		c.cs.dedup.order = append(c.cs.dedup.order, seq)
		c.cs.dedup.replies[seq] = wire.ReadPushReply(r)
	}
	for i, n := 0, r.Count(minAppliedEntry); i < n && r.Err() == nil; i++ {
		c.cs.appliedSeqs[r.U64()] = int(r.I64())
	}
	return c
}

// Load restores state saved by Save into a fresh server. It must be called
// before any client registers. The whole snapshot is decoded and verified
// before anything is installed, so a failed Load leaves the server fresh.
func (s *Server) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err == nil {
		err = s.load(data)
	}
	if err != nil {
		return fmt.Errorf("server: load: %w", err)
	}
	return nil
}

func (s *Server) load(data []byte) error {
	st, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	// Registration check first, on its own (clientMu is never held while
	// shard locks are acquired — the Push lock order). Load's contract is a
	// fresh, unshared server; the locks below are belt-and-suspenders.
	s.clientMu.Lock()
	if s.nextClient != 0 {
		s.clientMu.Unlock()
		return errors.New("clients already registered")
	}
	s.clientMu.Unlock()
	s.lockAllShards()

	for _, sh := range s.shards {
		sh.files = make(map[string][]byte)
		sh.dirs = make(map[string]bool)
		sh.vers = make(map[string]version.ID)
		sh.history = make(map[string][]revision)
	}
	for p, c := range st.files {
		s.shard(p).files[p] = c
	}
	for _, p := range st.dirs {
		s.shard(p).dirs[p] = true
	}
	for p, v := range st.vers {
		s.shard(p).setVer(p, v)
	}
	s.unlockAllShards()

	// Restore the chunk store: the FIFO comes back verbatim.
	s.chunkMu.Lock()
	s.chunks = make(map[block.Strong][]byte, len(st.chunks))
	s.chunkFIFO = nil
	s.chunkBytes = 0
	for _, c := range st.chunks {
		s.chunks[c.h] = c.data
		s.chunkFIFO = append(s.chunkFIFO, c.h)
		s.chunkBytes += int64(len(c.data))
	}
	s.chunkMu.Unlock()

	s.applied.replace(st.applied)

	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	s.nextClient = st.nextClient
	for _, c := range st.clients {
		s.clients[c.id] = c.cs
		// Members come back registered so forwarding scope — and the
		// sharing gate for conflict history — matches the pre-restart state
		// even before every client reattaches.
		if c.member {
			c.cs.registered = true
			s.joinGroupLocked(c.id, c.cs, c.group, true)
		}
	}
	return nil
}

// SaveFile writes the state to path through storagefault.ReplaceFile, so a
// crash leaves the previous snapshot or the complete new one. All IO goes
// through the server's storagefault.FS so crash-point harnesses can fork the
// disk at every step of the replace sequence.
func (s *Server) SaveFile(path string) error {
	if err := storagefault.ReplaceFile(s.fsys, path, s.Save); err != nil {
		return fmt.Errorf("server: save file: %w", err)
	}
	// Only now — snapshot renamed and the rename made durable — may the
	// journal's snapshot boundary advance. Committing it any earlier lets a
	// crash (or a failed snapshot fsync) truncate acked entries whose
	// snapshot never landed.
	if j := s.journal.Load(); j != nil {
		j.commitSnapshot()
	}
	return nil
}

// LoadFile restores state from path. A missing file is not an error (fresh
// server); the second return value reports whether state was loaded. An
// error names path.
func (s *Server) LoadFile(path string) (bool, error) {
	data, err := s.fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = s.load(data)
	}
	if err != nil {
		return false, fmt.Errorf("server: load %s: %w", path, err)
	}
	return true, nil
}
