package main

import (
	"os"

	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The wrappers below time calls into each layer from outside, at interface
// seams the program already has. With the tracer off each is a plain
// pass-through.

// timedFS times every call into a vfs.FS. The same wrapper serves two
// seams: around an engine (layer core.op, the application's view) and
// around the engine's backing store (layer vfs).
type timedFS struct {
	inner vfs.FS
	lane  *lane
	layer string
}

func (f *timedFS) call(op string, n int64, fn func() error) error {
	t := f.lane.begin()
	err := fn()
	f.lane.end(span{layer: f.layer, op: op, n: n}, t)
	return err
}

func (f *timedFS) Create(p string) error {
	return f.call("create", 0, func() error { return f.inner.Create(p) })
}

func (f *timedFS) WriteAt(p string, off int64, data []byte) error {
	return f.call("write", int64(len(data)), func() error { return f.inner.WriteAt(p, off, data) })
}

func (f *timedFS) ReadAt(p string, off, n int64) ([]byte, error) {
	t := f.lane.begin()
	data, err := f.inner.ReadAt(p, off, n)
	f.lane.end(span{layer: f.layer, op: "read", n: int64(len(data))}, t)
	return data, err
}

func (f *timedFS) ReadFile(p string) ([]byte, error) {
	t := f.lane.begin()
	data, err := f.inner.ReadFile(p)
	f.lane.end(span{layer: f.layer, op: "read", n: int64(len(data))}, t)
	return data, err
}

func (f *timedFS) Truncate(p string, size int64) error {
	return f.call("truncate", 0, func() error { return f.inner.Truncate(p, size) })
}

func (f *timedFS) Rename(a, b string) error {
	return f.call("rename", 0, func() error { return f.inner.Rename(a, b) })
}

func (f *timedFS) Link(a, b string) error {
	return f.call("link", 0, func() error { return f.inner.Link(a, b) })
}

func (f *timedFS) Unlink(p string) error {
	return f.call("unlink", 0, func() error { return f.inner.Unlink(p) })
}

func (f *timedFS) Mkdir(p string) error {
	return f.call("mkdir", 0, func() error { return f.inner.Mkdir(p) })
}

func (f *timedFS) Rmdir(p string) error {
	return f.call("rmdir", 0, func() error { return f.inner.Rmdir(p) })
}

func (f *timedFS) Close(p string) error {
	return f.call("close", 0, func() error { return f.inner.Close(p) })
}

func (f *timedFS) Fsync(p string) error {
	return f.call("fsync", 0, func() error { return f.inner.Fsync(p) })
}

func (f *timedFS) Stat(p string) (vfs.FileInfo, error) {
	t := f.lane.begin()
	fi, err := f.inner.Stat(p)
	f.lane.end(span{layer: f.layer, op: "stat"}, t)
	return fi, err
}

func (f *timedFS) List(prefix string) ([]string, error) {
	t := f.lane.begin()
	names, err := f.inner.List(prefix)
	f.lane.end(span{layer: f.layer, op: "list"}, t)
	return names, err
}

// timedEndpoint times the client side of every RPC through wire.Endpoint.
// A push span carries the batch's (Client, Seq) key, which the server-side
// wrapper sees too; other calls link by client and containment.
type timedEndpoint struct {
	inner wire.Endpoint
	lane  *lane
	id    uint32
}

func (e *timedEndpoint) rpc(op string, key reqKey, n int64, fn func() error) error {
	t := e.lane.begin()
	err := fn()
	e.lane.end(span{layer: layerWire, op: op, key: key, n: n}, t)
	return err
}

func (e *timedEndpoint) Register() (uint32, error) { return e.inner.Register() }

func (e *timedEndpoint) Push(b *wire.Batch) (r *wire.PushReply, err error) {
	// The transport stamps b.Client with the connection's identity; stamp it
	// first so the key is right before the call.
	b.Client = e.id
	var payload int64
	for _, n := range b.Nodes {
		payload += n.PayloadBytes()
	}
	err = e.rpc("push", reqKey{e.id, b.Seq}, payload, func() error { r, err = e.inner.Push(b); return err })
	return r, err
}

func (e *timedEndpoint) Fetch(p string) (r *wire.FetchReply, err error) {
	err = e.rpc("fetch", reqKey{client: e.id}, 0, func() error { r, err = e.inner.Fetch(p); return err })
	return r, err
}

func (e *timedEndpoint) Head(p string) (v version.ID, ok bool, err error) {
	err = e.rpc("head", reqKey{client: e.id}, 0, func() error { v, ok, err = e.inner.Head(p); return err })
	return v, ok, err
}

func (e *timedEndpoint) FetchRange(p string, off, n int64) (d []byte, err error) {
	err = e.rpc("fetchrange", reqKey{client: e.id}, 0, func() error { d, err = e.inner.FetchRange(p, off, n); return err })
	return d, err
}

func (e *timedEndpoint) Poll() (bs []*wire.Batch, err error) {
	err = e.rpc("poll", reqKey{client: e.id}, 0, func() error { bs, err = e.inner.Poll(); return err })
	return bs, err
}

func (e *timedEndpoint) Close() error { return e.inner.Close() }

// timedBackend times the server side of every RPC through wire.Backend. It
// runs on the transport's worker goroutines, so its spans go to the shared
// link store, where the client span of the same request claims them. A
// push span takes the journal spans that ran inside it as children.
type timedBackend struct {
	inner wire.Backend
	t     *tracer
}

func (b *timedBackend) record(s span, start int64) {
	s.start, s.end = start, b.t.now()
	if s.op == "push" {
		s.children = b.t.links.claimJournal(&s)
	}
	b.t.links.putServer(s)
}

func (b *timedBackend) RegisterGroup(group uint32) uint32 { return b.inner.RegisterGroup(group) }

func (b *timedBackend) Attach(client uint32) { b.inner.Attach(client) }

func (b *timedBackend) PushEncoded(from uint32, eb *wire.EncodedBatch) *wire.PushReply {
	if !b.t.enabled() {
		return b.inner.PushEncoded(from, eb)
	}
	start := b.t.now()
	r := b.inner.PushEncoded(from, eb)
	b.record(span{layer: layerServer, op: "push", key: reqKey{from, eb.Batch().Seq}}, start)
	return r
}

func (b *timedBackend) Fetch(p string) *wire.FetchReply {
	if !b.t.enabled() {
		return b.inner.Fetch(p)
	}
	start := b.t.now()
	r := b.inner.Fetch(p)
	b.record(span{layer: layerServer, op: "fetch"}, start)
	return r
}

func (b *timedBackend) Head(p string) (version.ID, bool) {
	if !b.t.enabled() {
		return b.inner.Head(p)
	}
	start := b.t.now()
	v, ok := b.inner.Head(p)
	b.record(span{layer: layerServer, op: "head"}, start)
	return v, ok
}

func (b *timedBackend) FetchRange(p string, off, n int64) ([]byte, error) {
	if !b.t.enabled() {
		return b.inner.FetchRange(p, off, n)
	}
	start := b.t.now()
	d, err := b.inner.FetchRange(p, off, n)
	b.record(span{layer: layerServer, op: "fetchrange"}, start)
	return d, err
}

func (b *timedBackend) PollEncoded(client uint32) []*wire.EncodedBatch {
	if !b.t.enabled() {
		return b.inner.PollEncoded(client)
	}
	start := b.t.now()
	out := b.inner.PollEncoded(client)
	b.record(span{layer: layerServer, op: "poll", key: reqKey{client: client}, n: int64(len(out))}, start)
	return out
}

// journalFS wraps the storage layer under the server's push journal. Every
// call, the background committer's included, is logged once in the link
// store: a server push takes the ones inside it as children, and the
// segment's fsync and byte counts come from the whole log.
type journalFS struct {
	inner storagefault.FS
	t     *tracer
}

func (j *journalFS) op(name string, fn func() error) error {
	if !j.t.enabled() {
		return fn()
	}
	start := j.t.now()
	err := fn()
	j.record(name, 0, start)
	return err
}

// record logs a journal call that began at start and moved n bytes.
func (j *journalFS) record(op string, n, start int64) {
	j.t.links.putJournal(span{layer: layerJournal, op: op, n: n, start: start, end: j.t.now()})
}

func (j *journalFS) OpenFile(name string, flag int, perm os.FileMode) (f storagefault.File, err error) {
	err = j.op("open", func() error { f, err = j.inner.OpenFile(name, flag, perm); return err })
	if err != nil {
		return nil, err
	}
	return &journalFile{File: f, fs: j}, nil
}

func (j *journalFS) ReadFile(name string) (d []byte, err error) {
	err = j.op("readfile", func() error { d, err = j.inner.ReadFile(name); return err })
	return d, err
}

func (j *journalFS) Rename(a, b string) error {
	return j.op("rename", func() error { return j.inner.Rename(a, b) })
}

func (j *journalFS) Remove(name string) error {
	return j.op("remove", func() error { return j.inner.Remove(name) })
}

func (j *journalFS) Link(a, b string) error {
	return j.op("link", func() error { return j.inner.Link(a, b) })
}

func (j *journalFS) Truncate(name string, size int64) error {
	return j.op("truncate", func() error { return j.inner.Truncate(name, size) })
}

func (j *journalFS) Mkdir(name string, perm os.FileMode) error {
	return j.op("mkdir", func() error { return j.inner.Mkdir(name, perm) })
}

func (j *journalFS) MkdirAll(name string, perm os.FileMode) error {
	return j.op("mkdirall", func() error { return j.inner.MkdirAll(name, perm) })
}

func (j *journalFS) SyncDir(dir string) error {
	return j.op("syncdir", func() error { return j.inner.SyncDir(dir) })
}

func (j *journalFS) Stat(name string) (fi storagefault.Info, err error) {
	err = j.op("stat", func() error { fi, err = j.inner.Stat(name); return err })
	return fi, err
}

func (j *journalFS) List(dir string) (names []string, err error) {
	err = j.op("list", func() error { names, err = j.inner.List(dir); return err })
	return names, err
}

// journalFile logs writes and fsyncs; the remaining File methods pass
// through the embedded handle.
type journalFile struct {
	storagefault.File
	fs *journalFS
}

func (f *journalFile) Write(p []byte) (int, error) {
	if !f.fs.t.enabled() {
		return f.File.Write(p)
	}
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	f.fs.record("write", int64(n), start)
	return n, err
}

func (f *journalFile) Sync() error { return f.fs.op("fsync", f.File.Sync) }
