package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// One connection loop. Every accepted connection — plain TCP or TLS — is
// one goroutine running serveConn. An idle connection's goroutine parks in
// the Go runtime's netpoller, which registers the descriptor with epoll
// once, edge-triggered; a request wakes exactly that goroutine, with no
// hand-off to another thread and no re-arm syscall. The price is a
// goroutine stack per connection (a few KB while idle).

// ServeStats exposes the transport's connection and request counters. All
// methods are safe for concurrent use.
type ServeStats struct {
	conns    atomic.Int64
	peak     atomic.Int64
	requests atomic.Int64
}

// Conns returns the number of currently open connections.
func (s *ServeStats) Conns() int64 { return s.conns.Load() }

// PeakConns returns the highest concurrent connection count observed.
func (s *ServeStats) PeakConns() int64 { return s.peak.Load() }

// Requests returns the total number of requests served.
func (s *ServeStats) Requests() int64 { return s.requests.Load() }

// opened counts one accepted connection.
func (s *ServeStats) opened() {
	n := s.conns.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// ServeConfig configures ServeWith.
type ServeConfig struct {
	// Stats, when non-nil, receives the transport's connection and request
	// counters.
	Stats *ServeStats
}

// writeTimeout bounds each response write. Without it, a half-dead peer
// that stops reading wedges its handler forever inside conn.Write (the
// kernel send buffer fills and the write never returns).
const writeTimeout = 30 * time.Second

// Serve accepts connections on lis and dispatches them into backend until
// lis is closed. Each connection serves one client sequentially.
func Serve(lis net.Listener, backend Backend) error {
	return ServeWith(lis, backend, ServeConfig{})
}

// ServeWith is Serve with an explicit configuration. It accepts connections
// until lis closes and serves each on its own goroutine; connections
// already accepted keep being served until they close.
func ServeWith(lis net.Listener, backend Backend, cfg ServeConfig) error {
	stats := cfg.Stats
	if stats == nil {
		stats = &ServeStats{}
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		stats.opened()
		go func() {
			serveConn(conn, backend, stats)
			stats.conns.Add(-1)
		}()
	}
}

// serveConn runs one connection's request loop. It returns (closing the
// connection) on the first decode or response-write failure: after a short
// read or write the frame boundary is lost, so continuing would
// desynchronize every later exchange. The returned error reports why the
// connection ended (nil for a clean EOF).
func serveConn(conn net.Conn, backend Backend, stats *ServeStats) error {
	defer conn.Close()
	cc := &connCodec{conn: conn, br: bufio.NewReader(conn)}
	var client uint32
	for {
		if err := serveOne(cc, backend, stats, &client); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("wire: serve: %w", err)
		}
	}
}
