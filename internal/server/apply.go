package server

import (
	"errors"
	"fmt"

	"repro/internal/rsync"
	"repro/internal/version"
	"repro/internal/wire"
)

// errConflict signals a base-version mismatch during application.
var errConflict = errors.New("server: base version mismatch")

// txn records compensation data so a partially applied batch can be rolled
// back. Old content slices are retained by reference (mutating operations
// copy-on-write), so rollback is cheap and allocation-light. The caller
// holds the batch's shard locks (batchLocks) for every path the txn touches.
type txn struct {
	s *Server
	// sharing reports whether the pusher's group has more than one member;
	// it gates conflict-history retention. Sampled once by Push, before the
	// shard locks are taken.
	sharing bool
	// ops collects applied operations, appended to the server log on
	// commit only.
	ops []AppliedOp
	// prevFiles maps each touched path to its prior content slice (nil
	// plus absent=true for files that did not exist).
	prevFiles map[string]prevFile
	prevVers  map[string]version.ID
	prevDirs  map[string]bool
}

type prevFile struct {
	content []byte
	existed bool
}

func newTxn(s *Server, sharing bool) *txn {
	return &txn{
		s:         s,
		sharing:   sharing,
		prevFiles: make(map[string]prevFile),
		prevVers:  make(map[string]version.ID),
		prevDirs:  make(map[string]bool),
	}
}

// touch snapshots a path's state once.
func (t *txn) touch(path string) {
	if _, ok := t.prevFiles[path]; !ok {
		sh := t.s.shard(path)
		c, existed := sh.files[path]
		t.prevFiles[path] = prevFile{content: c, existed: existed}
		t.prevVers[path] = sh.getVer(path)
	}
}

func (t *txn) touchDir(path string) {
	if _, ok := t.prevDirs[path]; !ok {
		t.prevDirs[path] = t.s.shard(path).dirs[path]
	}
}

func (t *txn) rollback() {
	for p, pf := range t.prevFiles {
		sh := t.s.shard(p)
		if pf.existed {
			sh.files[p] = pf.content
		} else {
			delete(sh.files, p)
		}
		sh.setVer(p, t.prevVers[p])
	}
	for p, existed := range t.prevDirs {
		sh := t.s.shard(p)
		if existed {
			sh.dirs[p] = true
		} else {
			delete(sh.dirs, p)
		}
	}
}

// commit finalizes the transaction, appending to the server's applied-op
// log and recording history snapshots for conflict resolution when the
// pusher's sharing group has multiple members. The caller still holds the
// batch's shard locks, which is what makes log order agree with per-path
// commit order (applied.go).
func (t *txn) commit() {
	t.s.applied.append(t.ops)
	if !t.sharing {
		return
	}
	for p := range t.prevFiles {
		sh := t.s.shard(p)
		c, ok := sh.files[p]
		if !ok {
			continue
		}
		snap := append([]byte(nil), c...)
		t.s.meter.Copy(int64(len(snap)))
		h := append(sh.history[p], revision{ver: sh.getVer(p), content: snap})
		if len(h) > HistoryDepth {
			// Clear the dropped revisions: the backing array outlives the
			// reslice, and would otherwise keep their content reachable.
			clear(h[:len(h)-HistoryDepth])
			h = h[len(h)-HistoryDepth:]
		}
		sh.history[p] = h
	}
}

// mutable returns a content buffer for path that is safe to modify in place:
// the prior slice is preserved in the txn, so the first mutation of a path
// in a transaction copies it.
func (t *txn) mutable(path string, minLen int64) []byte {
	t.touch(path)
	cur := t.s.shard(path).files[path]
	n := int64(len(cur))
	if minLen > n {
		n = minLen
	}
	fresh := make([]byte, n)
	copy(fresh, cur)
	t.s.meter.Copy(int64(len(cur)))
	return fresh
}

// checkBase verifies the node's base version against the live map.
func (t *txn) checkBase(n *wire.Node) error {
	switch n.Kind {
	case wire.NMkdir, wire.NRmdir:
		return nil
	}
	cur := t.s.shard(n.Path).getVer(n.Path)
	if !version.CheckBase(cur, n.Base) {
		return errConflict
	}
	return nil
}

// applyNode applies one node inside the transaction, including its version
// check and stamp. The caller holds the shard locks for every path the node
// names (Path, Dst, BasePath).
func (s *Server) applyNode(t *txn, n *wire.Node) error {
	if err := t.checkBase(n); err != nil {
		return err
	}
	t.ops = append(t.ops, AppliedOp{Kind: n.Kind, Path: n.Path})
	sh := s.shard(n.Path)
	switch n.Kind {
	case wire.NCreate:
		t.touch(n.Path)
		sh.files[n.Path] = nil

	case wire.NWrite:
		var maxEnd int64
		for _, e := range n.Extents {
			if e.Off < 0 {
				return fmt.Errorf("write %s: negative extent offset %d", n.Path, e.Off)
			}
			if end := e.Off + int64(len(e.Data)); end > maxEnd {
				maxEnd = end
			}
		}
		buf := t.mutable(n.Path, maxEnd)
		for _, e := range n.Extents {
			copy(buf[e.Off:], e.Data)
			s.meter.Copy(int64(len(e.Data)))
		}
		sh.files[n.Path] = buf

	case wire.NTruncate:
		t.touch(n.Path)
		cur, ok := sh.files[n.Path]
		if !ok {
			return fmt.Errorf("truncate: %s does not exist", n.Path)
		}
		if n.Size <= int64(len(cur)) {
			// Slicing shares the old array; the txn retains the original
			// slice header, so rollback still sees the full content.
			sh.files[n.Path] = cur[:n.Size:n.Size]
		} else {
			buf := make([]byte, n.Size)
			copy(buf, cur)
			s.meter.Copy(int64(len(cur)))
			sh.files[n.Path] = buf
		}

	case wire.NRename:
		t.touch(n.Path)
		t.touch(n.Dst)
		c, ok := sh.files[n.Path]
		if !ok {
			return fmt.Errorf("rename: %s does not exist", n.Path)
		}
		dsh := s.shard(n.Dst)
		dsh.files[n.Dst] = c
		delete(sh.files, n.Path)
		// version.Map.Rename semantics across (possibly) two shards.
		if v := sh.getVer(n.Path); !v.IsZero() {
			dsh.setVer(n.Dst, v)
			sh.setVer(n.Path, version.ID{})
		} else {
			dsh.setVer(n.Dst, version.ID{})
		}

	case wire.NLink:
		t.touch(n.Path)
		t.touch(n.Dst)
		c, ok := sh.files[n.Path]
		if !ok {
			return fmt.Errorf("link: %s does not exist", n.Path)
		}
		// The server store has no inodes; a link materializes as a copy
		// that shares the content slice (copied on next write).
		s.shard(n.Dst).files[n.Dst] = c

	case wire.NUnlink:
		t.touch(n.Path)
		if _, ok := sh.files[n.Path]; !ok {
			return fmt.Errorf("unlink: %s does not exist", n.Path)
		}
		delete(sh.files, n.Path)
		sh.setVer(n.Path, version.ID{})

	case wire.NMkdir:
		t.touchDir(n.Path)
		sh.dirs[n.Path] = true
		return nil

	case wire.NRmdir:
		t.touchDir(n.Path)
		delete(sh.dirs, n.Path)
		return nil

	case wire.NDelta:
		basePath := n.BasePath
		if basePath == "" {
			basePath = n.Path
		}
		base := s.shard(basePath).files[basePath]
		out, err := rsync.Patch(base, n.Delta, s.meter)
		if err != nil {
			return fmt.Errorf("delta on %s (base %s): %w", n.Path, basePath, err)
		}
		t.touch(n.Path)
		sh.files[n.Path] = out

	case wire.NFull:
		t.touch(n.Path)
		buf := append([]byte(nil), n.Full...)
		s.meter.Copy(int64(len(buf)))
		sh.files[n.Path] = buf

	case wire.NCDC:
		t.touch(n.Path)
		// Resolve every reference before storing any carried chunk: the
		// client built its references against the store's state at push
		// time, and inserting new chunks first could evict a chunk a later
		// reference in this very node still needs.
		resolved := make([][]byte, len(n.Chunks))
		for i, c := range n.Chunks {
			data := c.Data
			if data == nil {
				stored, ok := s.chunk(c.Hash)
				if !ok {
					return fmt.Errorf("cdc: %s references unknown chunk %x", n.Path, c.Hash[:4])
				}
				data = stored
			}
			if int64(len(data)) != c.Len {
				return fmt.Errorf("cdc: chunk %x length %d != %d", c.Hash[:4], len(data), c.Len)
			}
			resolved[i] = data
		}
		// Size the assembly buffer from the verified chunk lengths, not the
		// wire-claimed ones: by this point every resolved[i] has had its
		// actual length checked, so the sum cannot be inflated by a hostile
		// ChunkRef.Len.
		var total int64
		for i := range resolved {
			total += int64(len(resolved[i]))
		}
		// Store carried chunks. The resolved slices stay valid regardless
		// of eviction (the backing arrays outlive the map entries).
		buf := make([]byte, 0, total)
		for i, c := range n.Chunks {
			if c.Data != nil {
				s.storeChunk(c.Hash, append([]byte(nil), c.Data...))
			}
			buf = append(buf, resolved[i]...)
			s.meter.Copy(int64(len(resolved[i])))
		}
		sh.files[n.Path] = buf

	default:
		return fmt.Errorf("unknown node kind %d", n.Kind)
	}

	switch n.Kind {
	case wire.NUnlink, wire.NMkdir, wire.NRmdir:
		// No version to stamp: the path is gone or is a directory.
	case wire.NRename:
		if !n.Ver.IsZero() {
			sh.setVer(n.Path, version.ID{})
			s.shard(n.Dst).setVer(n.Dst, n.Ver)
		}
	case wire.NLink:
		if !n.Ver.IsZero() {
			s.shard(n.Dst).setVer(n.Dst, n.Ver) // the new name gets the version; the source keeps its own
		}
	default:
		if !n.Ver.IsZero() {
			sh.setVer(n.Path, n.Ver)
		}
	}
	return nil
}

// conflictEligible reports whether a losing node of this kind materializes
// a conflict copy (content-bearing kinds only).
func conflictEligible(k wire.NodeKind) bool {
	switch k {
	case wire.NMkdir, wire.NRmdir, wire.NUnlink, wire.NRename, wire.NLink, wire.NCreate:
		return false
	}
	return true
}

// conflictName is the deterministic path of the conflict copy a losing node
// would create. It is known before application (it depends only on the node
// and the pusher), which is what lets lockSetFor cover conflict shards up
// front.
func conflictName(n *wire.Node, from uint32) string {
	return fmt.Sprintf("%s.conflict-%d-%d", n.Path, from, n.Ver.Count)
}

// materializeConflict implements first-write-wins reconciliation: the
// server's current content stays the latest version; the losing update is
// applied to the base version it was made against (from history) and stored
// under a conflict name. Returns the conflict paths created. The caller
// holds the batch's shard locks, which cover every conflict name.
func (s *Server) materializeConflict(from uint32, nodes []*wire.Node) []string {
	var out []string
	for _, n := range nodes {
		if !conflictEligible(n.Kind) {
			continue
		}
		base, ok := s.historyContent(n.Path, n.Base)
		if !ok {
			// No retrievable base: fall back to an empty conflict marker
			// file so the user still learns about the lost update.
			base = nil
		}
		content, err := s.applyToContent(base, n)
		if err != nil {
			continue
		}
		name := conflictName(n, from)
		s.shard(name).files[name] = content
		out = append(out, name)
	}
	return out
}

// historyContent finds the retained snapshot of path at version v. A zero
// version resolves to empty content. The caller holds path's shard lock.
func (s *Server) historyContent(path string, v version.ID) ([]byte, bool) {
	if v.IsZero() {
		return nil, true
	}
	for _, rev := range s.shard(path).history[path] {
		if rev.ver == v {
			return rev.content, true
		}
	}
	return nil, false
}

// applyToContent applies a single content-bearing node to a standalone
// buffer (conflict materialization).
func (s *Server) applyToContent(base []byte, n *wire.Node) ([]byte, error) {
	switch n.Kind {
	case wire.NWrite:
		buf := append([]byte(nil), base...)
		for _, e := range n.Extents {
			if e.Off < 0 {
				return nil, fmt.Errorf("write %s: negative extent offset %d", n.Path, e.Off)
			}
			if end := e.Off + int64(len(e.Data)); end > int64(len(buf)) {
				grown := make([]byte, end)
				copy(grown, buf)
				buf = grown
			}
			copy(buf[e.Off:], e.Data)
		}
		return buf, nil
	case wire.NTruncate:
		if n.Size <= int64(len(base)) {
			return append([]byte(nil), base[:n.Size]...), nil
		}
		buf := make([]byte, n.Size)
		copy(buf, base)
		return buf, nil
	case wire.NDelta:
		return rsync.Patch(base, n.Delta, s.meter)
	case wire.NFull:
		return append([]byte(nil), n.Full...), nil
	case wire.NCDC:
		var buf []byte
		for _, c := range n.Chunks {
			data := c.Data
			if data == nil {
				stored, ok := s.chunk(c.Hash)
				if !ok {
					return nil, fmt.Errorf("cdc conflict: unknown chunk")
				}
				data = stored
			}
			buf = append(buf, data...)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("node kind %v carries no content", n.Kind)
}
