package wire

import (
	"crypto/tls"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/version"
)

// Many concurrent connections, each served by its own serveConn loop: the
// stats count them, every one works concurrently, and closing the clients
// drains the count to zero.
func TestServeManyConnections(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stats := &ServeStats{}
	backend := newFakeBackend()
	go ServeWith(lis, backend, ServeConfig{Stats: stats})

	const conns = 64
	var clients []*NetClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := DialWith(lis.Addr().String(), DialOpts{OpTimeout: time.Minute})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}

	if got := stats.Conns(); got != conns {
		t.Fatalf("Conns = %d, want %d", got, conns)
	}
	if got := stats.PeakConns(); got != conns {
		t.Fatalf("PeakConns = %d, want %d", got, conns)
	}
	// Every connection works, including concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *NetClient) {
			defer wg.Done()
			path := fmt.Sprintf("f%d", i)
			if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull, Path: path, Full: []byte{byte(i)}}}}); err != nil {
				errs <- fmt.Errorf("push %d: %w", i, err)
				return
			}
			fr, err := c.Fetch(path)
			if err != nil || !fr.Exists || len(fr.Content) != 1 || fr.Content[0] != byte(i) {
				errs <- fmt.Errorf("fetch %d: %+v, %v", i, fr, err)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := stats.Requests(); got < conns*3 {
		t.Fatalf("Requests = %d, want >= %d (register+push+fetch per conn)", got, conns*3)
	}

	// Closing the clients drains the server's connection count.
	for _, c := range clients {
		c.Close()
	}
	clients = nil
	deadline := time.Now().Add(5 * time.Second)
	for stats.Conns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Conns = %d after close, want 0", stats.Conns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TLS connections go through the same serveConn loop as plain TCP and work
// end to end.
func TestServeTLSFallsBack(t *testing.T) {
	serverConf, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stats := &ServeStats{}
	backend := newFakeBackend()
	go ServeWith(tls.NewListener(lis, serverConf), backend, ServeConfig{Stats: stats})

	c, err := DialWith(lis.Addr().String(), DialOpts{TLS: clientConf, OpTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Push(&Batch{Nodes: []*Node{{Kind: NFull, Path: "f", Full: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Conns(); got != 1 {
		t.Fatalf("Conns = %d, want 1", got)
	}
}

// countingBackend counts every call the transport makes into it.
type countingBackend struct{ calls atomic.Int64 }

func (b *countingBackend) RegisterGroup(uint32) uint32 { b.calls.Add(1); return 1 }
func (b *countingBackend) Attach(uint32)               { b.calls.Add(1) }
func (b *countingBackend) PushEncoded(uint32, *EncodedBatch) *PushReply {
	b.calls.Add(1)
	return &PushReply{}
}
func (b *countingBackend) Fetch(string) *FetchReply { b.calls.Add(1); return &FetchReply{} }
func (b *countingBackend) Head(string) (version.ID, bool) {
	b.calls.Add(1)
	return version.ID{}, false
}
func (b *countingBackend) FetchRange(string, int64, int64) ([]byte, error) {
	b.calls.Add(1)
	return nil, nil
}
func (b *countingBackend) PollEncoded(uint32) []*EncodedBatch { b.calls.Add(1); return nil }

// gobRequestOpening is the first message a gob encoder writes for the
// transport's request type — the type descriptor that opens every stream
// of a gob-speaking peer.
var gobRequestOpening, _ = hex.DecodeString("4e7f030101077265717565737401ff8000010701024f70010c000106436c69656e74010600010547726f757001060001014201ff8200010450617468010c0001034f666601040001014e0104000000")

// The server reads the codecMagic preamble once per connection and closes
// the connection on anything else — a gob stream, or a preamble carrying
// another codec version followed by a well-formed register frame — before
// a single request reaches the backend, over plain TCP and over TLS.
func TestServeRefusesForeignPreamble(t *testing.T) {
	serverConf, clientConf, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	otherVersion := codecMagic
	otherVersion[3]++
	register := beginFrame(nil)
	register, err = appendRequest(register, &request{Op: "register"})
	if err != nil {
		t.Fatal(err)
	}
	if err := finishFrame(register, 0); err != nil {
		t.Fatal(err)
	}
	openings := []struct {
		name  string
		bytes []byte
	}{
		{"gob", gobRequestOpening},
		{"other-version", append(otherVersion[:], register...)},
	}
	for _, useTLS := range []bool{false, true} {
		for _, op := range openings {
			t.Run(fmt.Sprintf("tls=%v/%s", useTLS, op.name), func(t *testing.T) {
				lis := mustListen(t)
				defer lis.Close()
				served := lis
				if useTLS {
					served = tls.NewListener(lis, serverConf)
				}
				stats := &ServeStats{}
				backend := &countingBackend{}
				go ServeWith(served, backend, ServeConfig{Stats: stats})

				conn, err := net.DialTimeout("tcp", lis.Addr().String(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if useTLS {
					tc := tls.Client(conn, clientConf)
					if err := tc.Handshake(); err != nil {
						t.Fatal(err)
					}
					conn = tc
				}
				if _, err := conn.Write(op.bytes); err != nil {
					t.Fatal(err)
				}
				var buf [64]byte
				n, err := conn.Read(buf[:])
				if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("read after foreign preamble = %d bytes, %v; want the server to close the connection", n, err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for stats.Conns() != 0 {
					if time.Now().After(deadline) {
						t.Fatalf("Conns = %d after refusal, want 0", stats.Conns())
					}
					time.Sleep(time.Millisecond)
				}
				if got := backend.calls.Load(); got != 0 {
					t.Fatalf("backend saw %d calls from a refused connection", got)
				}
			})
		}
	}
}

// serveConnLoops counts live goroutines inside serveConn.
func serveConnLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "wire.serveConn(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// A stopped server leaks no connection loop: once the listener and every
// client are closed, no goroutine may remain in serveConn — and so nothing
// keeps the backend reachable. One client per server is still connected
// when its listener closes, so the loop must also outlive the accept loop
// and then exit on its own.
func TestServeWithStopLeaksNoConnLoop(t *testing.T) {
	before := serveConnLoops()
	const servers = 20
	for i := 0; i < servers; i++ {
		lis := mustListen(t)
		done := make(chan error, 1)
		go func() { done <- ServeWith(lis, newFakeBackend(), ServeConfig{}) }()
		idle, err := DialWith(lis.Addr().String(), DialOpts{OpTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		live, err := DialWith(lis.Addr().String(), DialOpts{OpTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		idle.Close()
		lis.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if _, _, err := live.Head("f"); err != nil {
			t.Fatalf("accepted connection stopped serving when the listener closed: %v", err)
		}
		live.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := serveConnLoops() - before
		if leaked <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d serveConn loops outlive %d stopped servers", leaked, servers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
