// Package kvstore is a small embedded, crash-safe key-value store — the
// stand-in for LevelDB, which the paper uses to persist DeltaCFS's block
// checksums (§III-E). It keeps the full map in memory and persists through a
// write-ahead log plus an atomically-replaced snapshot, both sequences of
// internal/frame frames that open with a header frame (magic + version) and
// carry one record (op, key, value) per frame:
//
//	put/delete  →  append WAL record  →  apply to memtable
//	Compact()   →  storagefault.ReplaceFile(snapshot) → truncate WAL → WAL header
//	Open()      →  load snapshot, replay WAL (stopping at the first torn record)
//
// That recovery rule — ignore a trailing torn record instead of failing — is
// what makes the store safe across the power-cut experiments in Table IV.
// A WAL left empty or with a torn header by a crash right after a truncate
// replays as empty; a WAL of another kind or version is refused.
package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/storagefault"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.db"

	opPut    = byte(1)
	opDelete = byte(2)

	// The snapshot is a frame sequence: header, one put record per key in
	// sorted key order, end frame.
	snapshotMagic   = "kvstore snapshot"
	snapshotVersion = 1

	// The WAL is a header frame followed by one record frame per mutation;
	// it has no end frame, since it is appended to until the next
	// compaction truncates it.
	walMagic   = "kvstore wal"
	walVersion = 1

	// autoCompactWAL is the WAL size beyond which a mutation triggers a
	// snapshot + truncate, bounding recovery time and disk usage for
	// long-running clients.
	autoCompactWAL = 64 << 20
)

// walHeader is the header frame that opens every WAL.
var walHeader = func() []byte {
	b := frame.AppendU32(frame.AppendStr(frame.Begin(nil), walMagic), walVersion)
	if err := frame.Finish(b, 0, frame.MaxPayload); err != nil {
		panic(err)
	}
	return b
}()

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// ErrPoisoned is returned by every mutation and commit after a WAL flush or
// fsync has failed. Per fsyncgate, a failed fsync means the kernel dropped
// the dirty pages and marked them clean: a retried fsync that reports
// success has silently lost data. The store therefore fails permanently —
// reads still work, but nothing can claim durability again until the store
// is reopened (which replays only what actually reached disk).
var ErrPoisoned = errors.New("kvstore: wal poisoned by an earlier sync failure")

// Store is an embedded key-value store. All methods are safe for concurrent
// use. A Store opened with an empty directory is memory-only (no
// persistence), which the tests and some benchmarks use.
//
// Durability uses group commit: mutations append to the buffered WAL and
// return; the actual flush+fsync happens in Sync, where concurrent callers
// coalesce onto one fsync (leader/follower), and optionally on a periodic
// commit window (Options.CommitWindow) so checksum-store persistence costs
// one fsync per window instead of one per mutation.
type Store struct {
	mu     sync.RWMutex
	table  map[string][]byte
	dir    string
	fs     storagefault.FS
	wal    storagefault.File
	walBuf *bufio.Writer
	walLen int64  // record bytes after the WAL header
	recBuf []byte // scratch the WAL record frames are built in (under mu)
	closed bool

	// poisonVal holds the first WAL flush/fsync failure (an error). Once
	// set, every mutation and commit fails with ErrPoisoned — the
	// fsyncgate contract (see ErrPoisoned).
	poisonVal atomic.Value

	// Group commit. mutSeq counts WAL appends (under mu); syncedSeq is the
	// highest mutSeq known durable, advanced only by the fsync leader
	// (under commitMu). A Sync whose target is already covered returns
	// without touching the file — that is the coalescing.
	commitMu  sync.Mutex
	mutSeq    uint64 // under mu
	syncedSeq uint64 // under commitMu
	fsyncs    atomic.Int64
	coalesced atomic.Int64

	// Background committer (CommitWindow > 0).
	window     time.Duration
	commitKick chan struct{}
	commitQuit chan struct{}
	commitDone chan struct{}
}

// DefaultCommitWindow is the group-commit window production callers
// (cmd/deltacfs-server's push journal) use unless overridden. Chosen from
// the benchall commit-window sweep (BENCH_6.json): on the write-heavy
// loadsweep workload a 5ms window collapses per-push fsyncs by more than an
// order of magnitude at a durability lag bounded well below client RPC
// timeouts; wider windows bought little additional coalescing.
const DefaultCommitWindow = 5 * time.Millisecond

// Options tunes a store opened with OpenWith.
type Options struct {
	// CommitWindow, when positive, starts a background committer that
	// fsyncs the WAL at most once per window while mutations are pending.
	// Mutations return immediately; durability lags by at most one window
	// (plus the fsync itself) without any caller ever paying a per-op
	// fsync. Explicit Sync still works and still coalesces.
	CommitWindow time.Duration
	// FS is the file-IO layer the store writes through. nil means the
	// real file system (storagefault.OS); tests substitute a fault
	// injector or the SimDisk crash model.
	FS storagefault.FS
}

// Open opens (or creates) a store in dir. If dir is empty, the store is
// memory-only.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (or creates) a store in dir with explicit options.
func OpenWith(dir string, o Options) (*Store, error) {
	fsys := o.FS
	if fsys == nil {
		fsys = storagefault.OS
	}
	s := &Store{table: make(map[string][]byte), dir: dir, fs: fsys}
	if dir == "" {
		return s, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	intact, err := s.replayWAL()
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	// Make the WAL's directory entry durable before the first commit:
	// fsyncing a freshly created file persists its blocks but not its
	// name, and a crash that forgets the name forgets the log with it.
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: sync dir: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: stat wal: %w", err)
	}
	// Cut whatever replay discarded — a torn tail, or a torn header — so
	// new records land straight after the intact prefix, where the next
	// replay will find them.
	if size != intact {
		if err := f.Truncate(intact); err != nil {
			f.Close()
			return nil, fmt.Errorf("kvstore: truncate wal: %w", err)
		}
	}
	s.wal = f
	s.walBuf = bufio.NewWriter(f)
	if intact == 0 {
		s.startWAL()
	} else {
		s.walLen = intact - int64(len(walHeader))
	}
	if o.CommitWindow > 0 {
		s.window = o.CommitWindow
		s.commitKick = make(chan struct{}, 1)
		s.commitQuit = make(chan struct{})
		s.commitDone = make(chan struct{})
		go s.committer(s.commitQuit)
	}
	return s, nil
}

// committer is the background group-commit loop: each pending-mutation kick
// starts (at most) one window timer, and the fsync at its expiry covers
// every mutation that accumulated meanwhile — one fsync per window, not per
// mutation.
func (s *Store) committer(quit <-chan struct{}) {
	timer := time.NewTimer(s.window)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		select {
		case <-quit:
			// Close flushes and fsyncs the tail itself, so a pending
			// window can simply be abandoned.
			timer.Stop()
			close(s.commitDone)
			return
		case <-s.commitKick:
			if !armed {
				timer.Reset(s.window)
				armed = true
			}
		case <-timer.C:
			armed = false
			// Best-effort background flush: the next explicit Sync (or the
			// next window) retries and surfaces the error to a caller.
			//deltavet:allow errsync background committer retries next window
			s.Sync()
		}
	}
}

// kickCommit notifies the background committer that mutations are pending.
// Non-blocking: a full channel means a kick is already queued.
func (s *Store) kickCommit() {
	if s.commitKick == nil {
		return
	}
	select {
	case s.commitKick <- struct{}{}:
	default:
	}
}

func (s *Store) loadSnapshot() error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: read snapshot: %w", err)
	}
	table, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("kvstore: corrupt snapshot: %w", err)
	}
	s.table = table
	return nil
}

// replayWAL applies the WAL to the table and returns the length of its
// intact prefix (0 when there is no WAL).
func (s *Store) replayWAL() (int64, error) {
	path := filepath.Join(s.dir, walName)
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: read wal: %w", err)
	}
	intact, err := replayRecords(data, s.table)
	if err != nil {
		return 0, fmt.Errorf("kvstore: %s: %w", path, err)
	}
	return int64(intact), nil
}

// startWAL opens an empty WAL with its header. The header reaches the file
// with the next flush; a crash before that leaves an empty WAL, which
// replays as empty.
func (s *Store) startWAL() {
	s.walBuf.Write(walHeader) // into an empty buffer: cannot fail
}

// A record's payload is its op, its key, then the value as the rest of the
// payload.
func encodeRecordHead(b []byte, op byte, key []byte) []byte {
	return frame.AppendBytes(append(b, op), key)
}

// writeRecord writes one record frame to w, building its head in *buf; the
// value goes to w from the caller's slice. It returns the bytes written.
func writeRecord(w io.Writer, buf *[]byte, op byte, key, val []byte) (int, error) {
	b := encodeRecordHead(frame.Begin((*buf)[:0]), op, key)
	*buf = b
	if err := frame.FinishTail(b, 0, val, frame.MaxPayload); err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	if err != nil {
		return n, err
	}
	m, err := w.Write(val)
	return n + m, err
}

// recordBody decodes the key and value that follow a record's op byte.
func recordBody(r *frame.Reader) (key, val []byte) {
	return r.Bytes(), append([]byte(nil), r.Rest()...)
}

// replayRecords applies a WAL image to table and returns the length of its
// intact prefix. Empty data, or a torn or corrupt header frame, is an empty
// WAL: the header is the first thing written after a create or truncate, so
// a crash can leave it incomplete. A complete header of another kind or
// version is an error. After the header, replay stops at the first torn or
// corrupt record frame: recovery keeps everything up to it and discards the
// rest.
func replayRecords(data []byte, table map[string][]byte) (int, error) {
	payload, rest, err := frame.Next(data)
	if err != nil {
		return 0, nil
	}
	if !bytes.Equal(data[:len(data)-len(rest)], walHeader) {
		r := frame.NewReader(payload, false)
		return 0, fmt.Errorf("wal header %.32q version %d, this build reads only %q version %d",
			r.Str(), r.U32(), walMagic, walVersion)
	}
	intact := len(walHeader)
	for {
		payload, rest, err := frame.Next(data[intact:])
		if err != nil {
			return intact, nil
		}
		r := frame.NewReader(payload, true)
		op := r.U8()
		key, val := recordBody(&r)
		if r.Err() != nil {
			return intact, nil
		}
		switch op {
		case opPut:
			table[string(key)] = val
		case opDelete:
			delete(table, string(key))
		}
		intact = len(data) - len(rest)
	}
}

// writeSnapshot writes table as a snapshot, one put record per key in
// sorted key order.
func writeSnapshot(w io.Writer, table map[string][]byte) error {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var fw frame.Writer
	fw.Header(snapshotMagic, snapshotVersion)
	for _, k := range keys {
		fw.Emit(append(encodeRecordHead(fw.Begin(), opPut, []byte(k)), table[k]...))
		if err := fw.Flush(w); err != nil {
			return err
		}
	}
	fw.End()
	return fw.Flush(w)
}

// decodeSnapshot decodes a whole snapshot; any damage is an error.
func decodeSnapshot(data []byte) (map[string][]byte, error) {
	sc := frame.NewScanner(data)
	if err := sc.Header(snapshotMagic, snapshotVersion); err != nil {
		return nil, err
	}
	table := make(map[string][]byte)
	for {
		r := sc.Next()
		op := r.U8()
		if op == frame.TagEnd {
			return table, sc.End(r)
		}
		key, val := recordBody(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if op != opPut {
			return nil, fmt.Errorf("kvstore: snapshot contains op %d", op)
		}
		table[string(key)] = val
	}
}

// Get returns the value stored under key. The returned slice must not be
// modified by the caller.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.table[string(key)]
	return v, ok, nil
}

// Put stores val under key, appending to the WAL first when persistent.
func (s *Store) Put(key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	valCopy := append([]byte(nil), val...)
	if s.walBuf != nil {
		// CHA fans writeRecord's io.Writer.Write out to every Writer in the
		// program, including net-conn wrappers; walBuf is a local bufio.Writer
		// over the WAL file, so no network I/O happens under s.mu.
		//deltavet:allow blockunderlock walBuf is a local bufio.Writer, the CHA io.Writer fanout is spurious
		n, err := writeRecord(s.walBuf, &s.recBuf, opPut, key, valCopy)
		if err != nil {
			// The bufio state (and possibly the file tail) is now
			// unknowable; nothing after this point may claim durability.
			s.poison(err)
			return fmt.Errorf("kvstore: wal append: %w", err)
		}
		s.walLen += int64(n)
		s.mutSeq++
		s.kickCommit()
	}
	s.table[string(key)] = valCopy
	return s.maybeCompactLocked()
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	if s.walBuf != nil {
		// Same spurious CHA io.Writer fanout as Put: walBuf is file-backed.
		//deltavet:allow blockunderlock walBuf is a local bufio.Writer, the CHA io.Writer fanout is spurious
		n, err := writeRecord(s.walBuf, &s.recBuf, opDelete, key, nil)
		if err != nil {
			s.poison(err)
			return fmt.Errorf("kvstore: wal append: %w", err)
		}
		s.walLen += int64(n)
		s.mutSeq++
		s.kickCommit()
	}
	delete(s.table, string(key))
	return s.maybeCompactLocked()
}

// Sync makes every mutation that returned before the call durable. Concurrent
// Syncs group-commit: the first caller (leader) flushes and fsyncs the WAL
// once, covering every mutation appended up to that point; a caller whose
// mutations are already covered returns without touching the file.
func (s *Store) Sync() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if s.walBuf == nil {
		s.mu.RUnlock()
		return nil
	}
	target := s.mutSeq
	s.mu.RUnlock()
	return s.commitUpTo(target)
}

// commitUpTo makes mutations 1..target durable, coalescing with any commit
// that already covered them. The fsync happens outside s.mu, so mutations
// keep appending to the buffered WAL while the disk write is in flight.
func (s *Store) commitUpTo(target uint64) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.poisonedErr(); err != nil {
		// A poisoned store must never report a commit durable again, even
		// for mutations an earlier (successful) fsync already covered:
		// callers use Sync() == nil as "everything I wrote is on disk".
		return err
	}
	if s.syncedSeq >= target {
		s.coalesced.Add(1)
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	covered := s.mutSeq
	err := s.walBuf.Flush()
	s.mu.Unlock()
	if err != nil {
		s.poison(err)
		return err
	}
	if err := s.wal.Sync(); err != nil {
		// fsyncgate: the failed fsync dropped the dirty pages. Retrying
		// against the same file could report clean while the data is
		// gone, so the store is poisoned instead of returning the error
		// once and carrying on.
		s.poison(err)
		return err
	}
	s.fsyncs.Add(1)
	s.syncedSeq = covered
	return nil
}

func (s *Store) syncLocked() error {
	if s.walBuf == nil {
		return nil
	}
	if err := s.poisonedErr(); err != nil {
		return err
	}
	if err := s.walBuf.Flush(); err != nil {
		s.poison(err)
		return err
	}
	//deltavet:allow blockunderlock checkpoint fsync under s.mu is the durability contract
	if err := s.wal.Sync(); err != nil {
		s.poison(err)
		return err
	}
	s.fsyncs.Add(1)
	return nil
}

// poison records the first WAL failure; later calls keep the original.
func (s *Store) poison(err error) { s.poisonVal.CompareAndSwap(nil, err) }

// Poisoned returns the WAL failure that poisoned the store, or nil.
func (s *Store) Poisoned() error {
	if v := s.poisonVal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// poisonedErr wraps the sticky failure as an ErrPoisoned operation error.
func (s *Store) poisonedErr() error {
	if cause := s.Poisoned(); cause != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
	return nil
}

// FsyncCount returns the number of WAL fsyncs performed since Open.
func (s *Store) FsyncCount() int64 { return s.fsyncs.Load() }

// SyncCoalesced returns the number of Sync calls absorbed without an fsync
// because an earlier or concurrent commit already covered their mutations.
func (s *Store) SyncCoalesced() int64 { return s.coalesced.Load() }

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.table)
}

// WALSize returns the bytes of WAL records since the last compaction,
// excluding the header (0 for memory-only).
func (s *Store) WALSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walLen
}

// Range calls fn for every key with the given prefix, in sorted key order.
// Iteration stops if fn returns false. The key and value slices must not be
// retained or modified.
func (s *Store) Range(prefix []byte, fn func(key, val []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.table))
	for k := range s.table {
		if strings.HasPrefix(k, string(prefix)) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		s.mu.RLock()
		v, ok := s.table[k]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn([]byte(k), v) {
			return nil
		}
	}
	return nil
}

// maybeCompactLocked compacts when the WAL has outgrown its budget.
func (s *Store) maybeCompactLocked() error {
	if s.walLen < autoCompactWAL {
		return nil
	}
	return s.compactLocked()
}

// Compact writes the full table to a fresh snapshot (atomically replacing
// the old one) and truncates the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.dir == "" {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	// The rename is not durable until the directory is fsynced, which
	// ReplaceFile does before returning; truncating the WAL before that
	// opens a crash window where the old snapshot is back but the log
	// describing everything since is gone.
	//deltavet:allow blockunderlock compaction quiesces the store, fsync under the lock is the point
	err := storagefault.ReplaceFile(s.fs, filepath.Join(s.dir, snapshotName), func(w io.Writer) error {
		return writeSnapshot(w, s.table)
	})
	if err != nil {
		return fmt.Errorf("kvstore: write snapshot: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	s.walBuf.Reset(s.wal)
	s.startWAL()
	s.walLen = 0
	return nil
}

// Close flushes and closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	// Stop the background committer before taking any lock for good: its
	// commit path needs commitMu and mu, so waiting for it under either
	// would deadlock. Nil-ing commitQuit under mu makes Close idempotent.
	s.mu.Lock()
	quit := s.commitQuit
	s.commitQuit = nil
	s.mu.Unlock()
	if quit != nil {
		close(quit)
		<-s.commitDone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	if err := s.poisonedErr(); err != nil {
		// No final flush/fsync: the WAL cannot report durable again. The
		// handle still closes so the caller can reopen and replay what
		// actually reached disk.
		s.wal.Close()
		return err
	}
	if err := s.walBuf.Flush(); err != nil {
		s.poison(err)
		s.wal.Close()
		return err
	}
	//deltavet:allow blockunderlock final fsync on Close quiesces the store by design
	if err := s.wal.Sync(); err != nil {
		s.poison(err)
		s.wal.Close()
		return err
	}
	s.fsyncs.Add(1)
	return s.wal.Close()
}
