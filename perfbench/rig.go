package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/storagefault"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// transport is the loopback listener served by wire.ServeWith for a whole
// run, in front of whichever server the current session installed. One
// transport serves every session because ServeWith does not release its
// backend when it stops: its dispatch goroutine stays blocked in epoll_wait
// (the wake pipe is closed before the loop reads the wake byte), so each
// ServeWith in a process would keep a whole server alive.
type transport struct {
	tr      *tracer
	lis     net.Listener
	served  chan error
	current sessionBackend
}

func newTransport(tr *tracer) (*transport, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &transport{tr: tr, lis: lis, served: make(chan error, 1)}
	backend := &timedBackend{inner: &t.current, t: tr}
	go func() { t.served <- wire.ServeWith(lis, backend, wire.ServeConfig{}) }()
	return t, nil
}

// close stops accepting and waits for the accept loop to return.
func (t *transport) close() error {
	err := t.lis.Close()
	select {
	case serr := <-t.served:
		if err == nil {
			err = serr
		}
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("transport did not stop")
	}
	return err
}

// sessionBackend forwards every call to the session's server.
type sessionBackend struct{ atomic.Pointer[server.Server] }

func (b *sessionBackend) RegisterGroup(g uint32) uint32 { return b.Load().RegisterGroup(g) }
func (b *sessionBackend) Attach(c uint32)               { b.Load().Attach(c) }
func (b *sessionBackend) PushEncoded(from uint32, eb *wire.EncodedBatch) *wire.PushReply {
	return b.Load().PushEncoded(from, eb)
}
func (b *sessionBackend) Fetch(p string) *wire.FetchReply  { return b.Load().Fetch(p) }
func (b *sessionBackend) Head(p string) (version.ID, bool) { return b.Load().Head(p) }
func (b *sessionBackend) FetchRange(p string, off, n int64) ([]byte, error) {
	return b.Load().FetchRange(p, off, n)
}
func (b *sessionBackend) PollEncoded(c uint32) []*wire.EncodedBatch { return b.Load().PollEncoded(c) }

// rig is one session's stack: a server with its push journal at the
// default commit window, installed behind the run's transport, and two
// clients dialled over loopback TCP with the default codec. Each seam
// carries a timing wrapper that passes through while the tracer is off.
type rig struct {
	dir     string
	tr      *tracer
	srv     *server.Server
	srvCPU  *metrics.CPUMeter
	journal *server.Journal
	clk     *clock.Clock
	clients [2]*client
}

// client is one connection and, on the engine workloads, its engine.
type client struct {
	nc      *wire.NetClient
	ep      *timedEndpoint
	traffic *metrics.TrafficMeter
	cpu     *metrics.CPUMeter
	lane    *lane
	dirfs   *vfs.DirFS
	eng     *core.Engine
	app     vfs.FS // the engine as the application sees it, timed as core.op
}

// seedFunc installs a workload's initial files on one file system.
type seedFunc func(vfs.FS) error

// newRig builds a session's stack in a fresh directory under root and
// installs its server behind t. With seed, both clients run engines on
// DirFS backings holding the seeded files, and the server holds the same
// files. Both clients record their spans on the run's lane l.
func newRig(root string, t *transport, seed seedFunc, l *lane) (_ *rig, err error) {
	dir, err := os.MkdirTemp(root, "rig-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, tr: t.tr, clk: &clock.Clock{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	r.srvCPU = metrics.NewCPUMeter(metrics.PC)
	r.srv = server.New(r.srvCPU)
	jfs := &journalFS{inner: storagefault.OS, t: t.tr}
	if r.journal, err = server.OpenJournalFS(jfs, filepath.Join(dir, "journal"), kvstore.DefaultCommitWindow); err != nil {
		return nil, err
	}
	if _, err = r.journal.Replay(r.srv); err != nil {
		return nil, err
	}
	r.srv.SetJournal(r.journal)

	if seed != nil {
		for i := range r.clients {
			c := &client{lane: l}
			r.clients[i] = c
			if c.dirfs, err = vfs.NewDirFS(filepath.Join(dir, fmt.Sprintf("client%d", i))); err != nil {
				return nil, err
			}
			if err = seed(c.dirfs); err != nil {
				return nil, fmt.Errorf("seed client %d: %w", i, err)
			}
		}
		paths, err := r.clients[0].dirfs.List("")
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			content, err := r.clients[0].dirfs.ReadFile(p)
			if err != nil {
				return nil, err
			}
			r.srv.SeedFile(p, content)
		}
	}
	t.current.Store(r.srv)

	for i := range r.clients {
		c := r.clients[i]
		if c == nil {
			c = &client{lane: l}
			r.clients[i] = c
		}
		c.traffic = &metrics.TrafficMeter{}
		c.cpu = metrics.NewCPUMeter(metrics.PC)
		if c.nc, err = wire.DialWith(t.lis.Addr().String(), wire.DialOpts{Meter: c.cpu, Traffic: c.traffic}); err != nil {
			return nil, err
		}
		id, _ := c.nc.Register()
		c.ep = &timedEndpoint{inner: c.nc, lane: c.lane, id: id}
		if c.dirfs == nil {
			continue
		}
		c.eng, err = core.New(core.Config{
			Backing:  &timedFS{inner: c.dirfs, lane: c.lane, layer: layerVFS},
			Endpoint: c.ep,
			Clock:    r.clk,
			Meter:    c.cpu,
		})
		if err != nil {
			return nil, err
		}
		c.app = &timedFS{inner: c.eng.FS(), lane: c.lane, layer: layerCoreOp}
	}
	return r, nil
}

// writers returns the clients whose traffic the TUE counts: the writer
// engine on the engine workloads (the peer's traffic is the server
// forwarding the writer's versions), and both clients on push, where both
// write.
func (r *rig) writers() []*client {
	if r.clients[0].eng != nil {
		return r.clients[:1]
	}
	return r.clients[:]
}

// close closes the session's connections and journal and removes its
// directory.
func (r *rig) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range r.clients {
		if c != nil && c.nc != nil {
			note(c.nc.Close())
		}
	}
	if r.journal != nil {
		note(r.journal.Close())
	}
	note(os.RemoveAll(r.dir))
	return first
}
