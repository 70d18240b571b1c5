package storagefault

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
)

// SimDisk is an in-memory file system with an explicit crash model. Every
// file tracks two contents: what the page cache holds (volatile, the view
// all reads and writes see) and what the last File.Sync made durable. Every
// directory tracks two entry tables the same way: names appear, move and
// disappear in the volatile table immediately, and reach the durable table
// only on SyncDir. Directory creation is durable immediately (journaled
// metadata). Crash collapses each to its durable half.
//
// Every mutating call is also appended to an ordered trace; Fork(k) rebuilds
// a disk from the first k trace entries, so a harness can place a crash
// after *every* IO the workload performed — the ALICE exploration pattern.
// All methods are safe for concurrent use; trace order is the serialization
// order the disk's own mutex imposed, i.e. the order the "kernel" saw.
type SimDisk struct {
	mu      sync.Mutex
	inodes  map[int]*simInode
	nextIno int
	dirs    map[string]*simDir
	trace   []traceOp
	syncOps int
}

type simInode struct {
	data    []byte // volatile: what reads see
	durable []byte // what a crash preserves
}

type simDir struct {
	live    map[string]simEnt
	durable map[string]simEnt
}

type simEnt struct {
	ino   int
	isDir bool
}

// trace op kinds. Read-only calls are not traced: they create no crash
// points.
const (
	tCreate byte = iota + 1
	tWrite
	tSync
	tTruncate
	tRename
	tRemove
	tLink
	tMkdir
	tSyncDir
)

type traceOp struct {
	kind      byte
	name, dst string
	ino       int
	off, size int64
	data      []byte
}

// NewSimDisk returns an empty disk with an existing root directory.
func NewSimDisk() *SimDisk {
	d := &SimDisk{inodes: make(map[int]*simInode), dirs: make(map[string]*simDir)}
	d.dirs["."] = newSimDir()
	return d
}

func newSimDir() *simDir {
	return &simDir{live: make(map[string]simEnt), durable: make(map[string]simEnt)}
}

func simClean(name string) string {
	return path.Clean(strings.ReplaceAll(name, string(os.PathSeparator), "/"))
}

func simParent(name string) (dir, base string) {
	dir, base = path.Split(name)
	dir = path.Clean(dir)
	if dir == "" {
		dir = "."
	}
	return dir, base
}

// Ops returns the number of trace entries so far: the exclusive upper bound
// for Fork prefixes.
func (d *SimDisk) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.trace)
}

// SyncOps returns how many File.Sync calls the trace holds — the matrix
// size for fsync-failure-point exploration.
func (d *SimDisk) SyncOps() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncOps
}

// Fork returns an independent disk rebuilt from the first k trace entries.
// The fork carries the truncated trace, so a workload can continue on it.
func (d *SimDisk) Fork(k int) *SimDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k < 0 || k > len(d.trace) {
		panic(fmt.Sprintf("storagefault: Fork(%d) outside trace of %d ops", k, len(d.trace)))
	}
	f := NewSimDisk()
	for _, op := range d.trace[:k] {
		f.apply(op)
	}
	f.trace = append(f.trace, d.trace[:k]...)
	for _, op := range f.trace {
		if op.kind == tSync {
			f.syncOps++
		}
	}
	return f
}

// Crash discards everything volatile: file contents revert to their last
// fsynced state, directory tables to their last SyncDir. Open handles on
// the old disk must be abandoned.
func (d *SimDisk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ino := range d.inodes {
		ino.data = append([]byte(nil), ino.durable...)
	}
	for _, dir := range d.dirs {
		dir.live = make(map[string]simEnt, len(dir.durable))
		for k, v := range dir.durable {
			dir.live[k] = v
		}
	}
}

// CrashTorn is Crash, except files whose volatile content extends their
// durable content keep a seeded-random prefix of the un-fsynced suffix —
// the torn-tail shape a power cut leaves in an append-only log, which
// CRC-framed recovery must absorb.
func (d *SimDisk) CrashTorn(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	for _, ino := range d.inodes {
		vol, dur := ino.data, ino.durable
		if len(vol) > len(dur) && bytes.Equal(vol[:len(dur)], dur) {
			keep := len(dur) + rng.Intn(len(vol)-len(dur)+1)
			ino.data = append([]byte(nil), vol[:keep]...)
		} else {
			ino.data = append([]byte(nil), dur...)
		}
	}
	for _, dir := range d.dirs {
		dir.live = make(map[string]simEnt, len(dir.durable))
		for k, v := range dir.durable {
			dir.live[k] = v
		}
	}
}

// record appends op to the trace (d.mu held).
func (d *SimDisk) record(op traceOp) {
	if len(op.data) > 0 {
		op.data = append([]byte(nil), op.data...)
	}
	d.trace = append(d.trace, op)
	if op.kind == tSync {
		d.syncOps++
	}
}

// apply mutates state for op without tracing (Fork replay). Every op was
// legal when recorded, so apply trusts it.
func (d *SimDisk) apply(op traceOp) {
	switch op.kind {
	case tCreate:
		d.inodes[op.ino] = &simInode{}
		if op.ino >= d.nextIno {
			d.nextIno = op.ino + 1
		}
		dir, base := simParent(op.name)
		d.dirs[dir].live[base] = simEnt{ino: op.ino}
	case tWrite:
		ino := d.inodes[op.ino]
		end := op.off + int64(len(op.data))
		if int64(len(ino.data)) < end {
			grown := make([]byte, end)
			copy(grown, ino.data)
			ino.data = grown
		}
		copy(ino.data[op.off:], op.data)
	case tSync:
		ino := d.inodes[op.ino]
		ino.durable = append([]byte(nil), ino.data...)
	case tTruncate:
		ino := d.inodes[op.ino]
		if op.size <= int64(len(ino.data)) {
			ino.data = append([]byte(nil), ino.data[:op.size]...)
		} else {
			grown := make([]byte, op.size)
			copy(grown, ino.data)
			ino.data = grown
		}
	case tRename:
		od, ob := simParent(op.name)
		nd, nb := simParent(op.dst)
		ent := d.dirs[od].live[ob]
		delete(d.dirs[od].live, ob)
		d.dirs[nd].live[nb] = ent
	case tRemove:
		dir, base := simParent(op.name)
		ent := d.dirs[dir].live[base]
		delete(d.dirs[dir].live, base)
		if ent.isDir {
			delete(d.dirs, op.name)
		}
	case tLink:
		od, ob := simParent(op.name)
		nd, nb := simParent(op.dst)
		d.dirs[nd].live[nb] = d.dirs[od].live[ob]
	case tMkdir:
		dir, base := simParent(op.name)
		ent := simEnt{isDir: true}
		d.dirs[dir].live[base] = ent
		d.dirs[dir].durable[base] = ent
		d.dirs[op.name] = newSimDir()
	case tSyncDir:
		dir := d.dirs[op.name]
		dir.durable = make(map[string]simEnt, len(dir.live))
		for k, v := range dir.live {
			dir.durable[k] = v
		}
	}
}

// lookup resolves name to its live entry (d.mu held).
func (d *SimDisk) lookup(name string) (simEnt, bool) {
	if name == "." {
		return simEnt{isDir: true}, true
	}
	dir, base := simParent(name)
	tab, ok := d.dirs[dir]
	if !ok {
		return simEnt{}, false
	}
	ent, ok := tab.live[base]
	return ent, ok
}

func simErr(op, name string, err error) error {
	return &os.PathError{Op: op, Path: name, Err: err}
}

// simFile is an open handle.
type simFile struct {
	d      *SimDisk
	ino    int
	name   string
	pos    int64
	append bool
	wr     bool
	closed bool
}

// OpenFile implements FS.
func (d *SimDisk) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(name)
	if ok && ent.isDir {
		return nil, simErr("open", name, fmt.Errorf("is a directory"))
	}
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, simErr("open", name, os.ErrNotExist)
		}
		dir, _ := simParent(name)
		if _, dirOK := d.dirs[dir]; !dirOK {
			return nil, simErr("open", name, os.ErrNotExist)
		}
		ino := d.nextIno
		d.nextIno++
		op := traceOp{kind: tCreate, name: name, ino: ino}
		d.record(op)
		d.apply(op)
		ent = simEnt{ino: ino}
	} else if flag&os.O_TRUNC != 0 {
		op := traceOp{kind: tTruncate, ino: ent.ino, size: 0}
		d.record(op)
		d.apply(op)
	}
	return &simFile{
		d:      d,
		ino:    ent.ino,
		name:   name,
		append: flag&os.O_APPEND != 0,
		wr:     flag&(os.O_WRONLY|os.O_RDWR|os.O_APPEND) != 0,
	}, nil
}

func (f *simFile) inode() (*simInode, error) {
	if f.closed {
		return nil, simErr("file", f.name, os.ErrClosed)
	}
	return f.d.inodes[f.ino], nil
}

func (f *simFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	ino, err := f.inode()
	if err != nil {
		return 0, err
	}
	off := f.pos
	if f.append {
		off = int64(len(ino.data))
	}
	op := traceOp{kind: tWrite, ino: f.ino, off: off, data: p}
	f.d.record(op)
	f.d.apply(op)
	f.pos = off + int64(len(p))
	return len(p), nil
}

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if _, err := f.inode(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, simErr("writeat", f.name, fmt.Errorf("negative offset"))
	}
	op := traceOp{kind: tWrite, ino: f.ino, off: off, data: p}
	f.d.record(op)
	f.d.apply(op)
	return len(p), nil
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	ino, err := f.inode()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *simFile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if _, err := f.inode(); err != nil {
		return err
	}
	op := traceOp{kind: tSync, ino: f.ino, name: f.name}
	f.d.record(op)
	f.d.apply(op)
	return nil
}

func (f *simFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if _, err := f.inode(); err != nil {
		return err
	}
	if size < 0 {
		return simErr("truncate", f.name, fmt.Errorf("negative size"))
	}
	op := traceOp{kind: tTruncate, ino: f.ino, size: size}
	f.d.record(op)
	f.d.apply(op)
	return nil
}

func (f *simFile) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	ino, err := f.inode()
	if err != nil {
		return 0, err
	}
	return int64(len(ino.data)), nil
}

func (f *simFile) Close() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed {
		return simErr("close", f.name, os.ErrClosed)
	}
	f.closed = true
	return nil
}

// ReadFile implements FS.
func (d *SimDisk) ReadFile(name string) ([]byte, error) {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(name)
	if !ok {
		return nil, simErr("open", name, os.ErrNotExist)
	}
	if ent.isDir {
		return nil, simErr("read", name, fmt.Errorf("is a directory"))
	}
	return append([]byte(nil), d.inodes[ent.ino].data...), nil
}

// Rename implements FS. Directory renames are not supported (no persistence
// site performs one).
func (d *SimDisk) Rename(oldName, newName string) error {
	oldName, newName = simClean(oldName), simClean(newName)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(oldName)
	if !ok {
		return simErr("rename", oldName, os.ErrNotExist)
	}
	if ent.isDir {
		return simErr("rename", oldName, fmt.Errorf("directory rename not supported"))
	}
	nd, _ := simParent(newName)
	if _, dirOK := d.dirs[nd]; !dirOK {
		return simErr("rename", newName, os.ErrNotExist)
	}
	if dst, ok := d.lookup(newName); ok && dst.isDir {
		return simErr("rename", newName, fmt.Errorf("destination is a directory"))
	}
	op := traceOp{kind: tRename, name: oldName, dst: newName}
	d.record(op)
	d.apply(op)
	return nil
}

// Remove implements FS.
func (d *SimDisk) Remove(name string) error {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(name)
	if !ok {
		return simErr("remove", name, os.ErrNotExist)
	}
	if ent.isDir && len(d.dirs[name].live) > 0 {
		return simErr("remove", name, fmt.Errorf("directory not empty"))
	}
	op := traceOp{kind: tRemove, name: name}
	d.record(op)
	d.apply(op)
	return nil
}

// Link implements FS: newName becomes a second name for oldName's inode.
func (d *SimDisk) Link(oldName, newName string) error {
	oldName, newName = simClean(oldName), simClean(newName)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(oldName)
	if !ok {
		return simErr("link", oldName, os.ErrNotExist)
	}
	if ent.isDir {
		return simErr("link", oldName, fmt.Errorf("cannot link a directory"))
	}
	if _, exists := d.lookup(newName); exists {
		return simErr("link", newName, os.ErrExist)
	}
	nd, _ := simParent(newName)
	if _, dirOK := d.dirs[nd]; !dirOK {
		return simErr("link", newName, os.ErrNotExist)
	}
	op := traceOp{kind: tLink, name: oldName, dst: newName}
	d.record(op)
	d.apply(op)
	return nil
}

// Truncate implements FS.
func (d *SimDisk) Truncate(name string, size int64) error {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(name)
	if !ok || ent.isDir {
		return simErr("truncate", name, os.ErrNotExist)
	}
	if size < 0 {
		return simErr("truncate", name, fmt.Errorf("negative size"))
	}
	op := traceOp{kind: tTruncate, ino: ent.ino, size: size}
	d.record(op)
	d.apply(op)
	return nil
}

// Mkdir implements FS.
func (d *SimDisk) Mkdir(name string, _ os.FileMode) error {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mkdirLocked(name)
}

func (d *SimDisk) mkdirLocked(name string) error {
	if name == "." {
		return nil
	}
	if _, exists := d.lookup(name); exists {
		return simErr("mkdir", name, os.ErrExist)
	}
	dir, _ := simParent(name)
	if _, dirOK := d.dirs[dir]; !dirOK {
		return simErr("mkdir", name, os.ErrNotExist)
	}
	op := traceOp{kind: tMkdir, name: name}
	d.record(op)
	d.apply(op)
	return nil
}

// MkdirAll implements FS.
func (d *SimDisk) MkdirAll(name string, _ os.FileMode) error {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	if name == "." {
		return nil
	}
	parts := strings.Split(name, "/")
	cur := ""
	for _, p := range parts {
		if cur == "" {
			cur = p
		} else {
			cur = cur + "/" + p
		}
		if ent, ok := d.lookup(cur); ok {
			if !ent.isDir {
				return simErr("mkdir", cur, fmt.Errorf("not a directory"))
			}
			continue
		}
		if err := d.mkdirLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

// SyncDir implements FS: the dir's live entry table becomes durable.
func (d *SimDisk) SyncDir(dir string) error {
	dir = simClean(dir)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.dirs[dir]; !ok {
		return simErr("syncdir", dir, os.ErrNotExist)
	}
	op := traceOp{kind: tSyncDir, name: dir}
	d.record(op)
	d.apply(op)
	return nil
}

// Stat implements FS.
func (d *SimDisk) Stat(name string) (Info, error) {
	name = simClean(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.lookup(name)
	if !ok {
		return Info{}, simErr("stat", name, os.ErrNotExist)
	}
	if ent.isDir {
		return Info{IsDir: true}, nil
	}
	return Info{Size: int64(len(d.inodes[ent.ino].data))}, nil
}

// List implements FS.
func (d *SimDisk) List(dir string) ([]string, error) {
	dir = simClean(dir)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.dirs[dir]; !ok {
		return nil, nil
	}
	var out []string
	var walk func(cur, rel string)
	walk = func(cur, rel string) {
		for base, ent := range d.dirs[cur].live {
			childRel := base
			if rel != "" {
				childRel = rel + "/" + base
			}
			child := base
			if cur != "." {
				child = cur + "/" + base
			}
			if ent.isDir {
				walk(child, childRel)
			} else {
				out = append(out, childRel)
			}
		}
	}
	walk(dir, "")
	sort.Strings(out)
	return out, nil
}

var _ FS = (*SimDisk)(nil)
