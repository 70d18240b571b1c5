package wire

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/version"
)

// Backend is the server-side application the network transport dispatches
// into (implemented by internal/server.Server). It mirrors Endpoint with an
// explicit client ID. Push and Poll traffic in EncodedBatch so the encoded
// wire payload travels with the batch: a push decoded from the binary
// transport reaches the journal and the forwarding outboxes with its frame
// bytes attached (zero re-encodes), and a poll response splices those same
// bytes back out once per peer.
type Backend interface {
	// RegisterGroup assigns a new client ID in the given sharing group
	// (group 0 is the default everyone-shares namespace).
	RegisterGroup(group uint32) uint32
	// Attach re-binds a reconnecting transport to an already-registered
	// client ID, so reconnects keep version stamps and idempotency keys
	// stable instead of minting a fresh identity.
	Attach(client uint32)
	PushEncoded(from uint32, eb *EncodedBatch) *PushReply
	Fetch(path string) *FetchReply
	Head(path string) (version.ID, bool)
	FetchRange(path string, off, n int64) ([]byte, error)
	PollEncoded(client uint32) []*EncodedBatch
}

// request is the single on-the-wire request message.
type request struct {
	Op     string // "register", "attach", "push", "fetch", "head", "fetchrange", "poll"
	Client uint32 // attach: the ID to re-bind
	Group  uint32 // register: the sharing group to join
	B      *Batch
	Path   string
	Off    int64
	N      int64
}

// response is the single on-the-wire response message.
type response struct {
	Err     string
	Client  uint32
	Push    *PushReply
	Fetch   *FetchReply
	Ver     version.ID
	Exists  bool
	Data    []byte
	Batches []*Batch
}

// connCodec is one server-side connection's codec state: the buffered
// reader frames are decoded from, and whether the connection's codecMagic
// preamble has been checked yet.
type connCodec struct {
	conn    net.Conn
	br      *bufio.Reader
	greeted bool
}

// checkPreamble reads the codecMagic a client sends once, right after
// connect. Any other opening — a different codec version, or bytes that are
// not this protocol at all — is an error, and the caller closes the
// connection before any request reaches the backend.
func (cc *connCodec) checkPreamble() error {
	if cc.greeted {
		return nil
	}
	var magic [4]byte
	if _, err := io.ReadFull(cc.br, magic[:]); err != nil {
		return fmt.Errorf("wire: codec preamble: %w", err)
	}
	if magic != codecMagic {
		return fmt.Errorf("wire: unsupported codec preamble %x", magic)
	}
	cc.greeted = true
	return nil
}

// readRequest decodes one request. For push requests it returns the
// batch's raw payload (retained by the caller in an EncodedBatch — the
// decoded batch aliases it); nil otherwise.
func (cc *connCodec) readRequest(req *request) ([]byte, error) {
	if err := cc.checkPreamble(); err != nil {
		return nil, err
	}
	// The frame buffer is allocated fresh, not pooled: push frames are
	// retained for the batch's lifetime (journal + outboxes), and non-push
	// requests are a few dozen bytes.
	payload, err := frame.Read(cc.br, nil, MaxFrameSize)
	if err != nil {
		return nil, err
	}
	return decodeRequest(payload, req)
}

// writeResponse encodes one response. ebs carries a poll's batches in
// already-encoded form; their payloads are spliced into the frame verbatim.
func (cc *connCodec) writeResponse(resp *response, ebs []*EncodedBatch) error {
	bp := getFrameBuf()
	buf := frame.Begin((*bp)[:0])
	buf = appendResponse(buf, resp, ebs)
	err := frame.Finish(buf, 0, MaxFrameSize)
	if err == nil {
		_, err = cc.conn.Write(buf)
	}
	*bp = buf[:0]
	putFrameBuf(bp)
	return err
}

// serveOne decodes and answers exactly one request: serveConn's per-request
// step. A clean peer shutdown surfaces as io.EOF.
func serveOne(cc *connCodec, backend Backend, stats *ServeStats, client *uint32) error {
	var req request
	raw, err := cc.readRequest(&req)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("read: %w", err)
	}
	stats.requests.Add(1)
	var resp response
	var ebs []*EncodedBatch
	switch req.Op {
	case "register":
		*client = backend.RegisterGroup(req.Group)
		resp.Client = *client
	case "attach":
		*client = req.Client
		backend.Attach(*client)
		resp.Client = *client
	case "push":
		if req.B == nil {
			resp.Err = "push without batch"
			break
		}
		if req.B.Client != *client {
			req.B.Client = *client
			// The batch payload carries Client at a fixed offset so the
			// server can rebind the claimed identity in the retained frame
			// too — forwarded and journaled bytes must agree with the
			// decoded struct.
			binary.LittleEndian.PutUint32(raw[:4], *client)
		}
		resp.Push = backend.PushEncoded(*client, NewEncodedBatchRaw(req.B, raw))
	case "fetch":
		resp.Fetch = backend.Fetch(req.Path)
	case "head":
		resp.Ver, resp.Exists = backend.Head(req.Path)
	case "fetchrange":
		data, err := backend.FetchRange(req.Path, req.Off, req.N)
		if err != nil {
			resp.Err = err.Error()
		}
		resp.Data = data
	case "poll":
		ebs = backend.PollEncoded(*client)
	default:
		resp.Err = fmt.Sprintf("unknown op %q", req.Op)
	}
	cc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err = cc.writeResponse(&resp, ebs)
	cc.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// TransportError tags a transport-level failure with the phase of the RPC
// exchange it interrupted, which determines how it may be retried (see
// Classify).
type TransportError struct {
	Phase string // "dial", "send" or "recv"
	Err   error
}

func (e *TransportError) Error() string { return fmt.Sprintf("wire: %s: %v", e.Phase, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// ErrClass classifies an RPC failure for retry purposes.
type ErrClass int

const (
	// ClassFatal errors came back from the application: the exchange
	// completed and retrying would repeat the same answer.
	ClassFatal ErrClass = iota
	// ClassRetryable errors happened before the request could have reached
	// the server (dial failures): retrying is always safe.
	ClassRetryable
	// ClassAmbiguous errors interrupted an exchange in flight (send or
	// receive): the server may or may not have processed the request, so
	// blind retry is only safe for idempotent requests — reads, and pushes
	// carrying an idempotency key the server dedups on.
	ClassAmbiguous
	// ClassDegraded errors are the server's read-only refusal (its
	// storage stack can no longer make writes durable). The exchange
	// completed and the batch was NOT applied; retry after backoff on the
	// same connection — reconnecting won't help, and giving up (fatal)
	// would be wrong because the condition is operator-recoverable.
	ClassDegraded
)

// Classify maps an error from a NetClient RPC onto its retry class.
func Classify(err error) ErrClass {
	if _, ok := AsDegraded(err); ok {
		return ClassDegraded
	}
	var te *TransportError
	if !errors.As(err, &te) {
		return ClassFatal
	}
	if te.Phase == "dial" {
		return ClassRetryable
	}
	// A failed send is still ambiguous: a write can fail after part of the
	// frame — even all of it — has reached the server.
	return ClassAmbiguous
}

// NetClient is a TCP/TLS Endpoint. It is safe for concurrent use (requests
// are serialized on the single connection).
type NetClient struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader // response frame reads
	rbuf    []byte        // response scratch (under mu)
	id      uint32
	timeout time.Duration
	broken  bool
	traffic *metrics.TrafficMeter
	meter   *metrics.CPUMeter
}

// DialOpts configures DialWith.
type DialOpts struct {
	// TLS may be nil for plaintext.
	TLS *tls.Config
	// Meter and Traffic account the client side; either may be nil.
	Meter   *metrics.CPUMeter
	Traffic *metrics.TrafficMeter
	// OpTimeout is the per-RPC deadline applied to the connection for each
	// round trip (send + receive). Zero means no deadline.
	OpTimeout time.Duration
	// AttachID, when nonzero, re-binds this connection to an existing
	// client ID instead of registering a new one — the reconnect path.
	AttachID uint32
	// Group is the sharing group to register into (0 = the default
	// everyone-shares group). Forwarding and conflict history are scoped to
	// the group, which is what lets one server host many isolated tenants.
	Group uint32
	// HardClose makes Close reset the connection (SO_LINGER 0) instead of
	// lingering in TIME_WAIT. Load harnesses churn tens of thousands of
	// loopback connections per run and would otherwise exhaust the local
	// port and TIME_WAIT tables, skewing back-to-back measurements.
	HardClose bool
}

// Dial connects to a Serve listener and registers a new client. tlsConf may
// be nil for plaintext. traffic and meter account the client side and may be
// nil.
func Dial(addr string, tlsConf *tls.Config, meter *metrics.CPUMeter, traffic *metrics.TrafficMeter) (*NetClient, error) {
	return DialWith(addr, DialOpts{TLS: tlsConf, Meter: meter, Traffic: traffic})
}

// DialWith connects to a Serve listener with explicit options. When
// OpTimeout is set it also bounds connection establishment — including the
// TLS handshake, which otherwise blocks forever if the peer (or a fault in
// between) swallows handshake bytes.
func DialWith(addr string, o DialOpts) (*NetClient, error) {
	conn, err := net.DialTimeout("tcp", addr, o.OpTimeout)
	if err != nil {
		return nil, &TransportError{Phase: "dial", Err: fmt.Errorf("%s: %w", addr, err)}
	}
	if o.HardClose {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
	}
	if o.TLS != nil {
		if o.OpTimeout > 0 {
			conn.SetDeadline(time.Now().Add(o.OpTimeout))
		}
		tc := tls.Client(conn, o.TLS)
		if err := tc.Handshake(); err != nil {
			conn.Close()
			return nil, &TransportError{Phase: "dial", Err: fmt.Errorf("%s: tls: %w", addr, err)}
		}
		conn.SetDeadline(time.Time{})
		conn = tc
	}
	c := &NetClient{
		conn:    conn,
		br:      bufio.NewReader(conn),
		timeout: o.OpTimeout,
		traffic: o.Traffic,
		meter:   o.Meter,
	}
	if o.OpTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(o.OpTimeout))
	}
	_, err = conn.Write(codecMagic[:])
	if o.OpTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, &TransportError{Phase: "dial", Err: fmt.Errorf("%s: codec preamble: %w", addr, err)}
	}
	req := request{Op: "register", Group: o.Group}
	if o.AttachID != 0 {
		req = request{Op: "attach", Client: o.AttachID}
	}
	resp, err := c.roundTrip(req, 0)
	if err != nil {
		conn.Close()
		// The identity exchange is part of connection establishment: a
		// failure here never leaves server-visible state behind, so report
		// it as a dial failure (always retryable).
		return nil, &TransportError{Phase: "dial", Err: err}
	}
	c.id = resp.Client
	return c, nil
}

// roundTrip sends req and waits for the response. wireBytes is the
// accounted request size (0 → requestSize).
func (c *NetClient) roundTrip(req request, wireBytes int64) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, &TransportError{Phase: "send", Err: errors.New("connection previously failed")}
	}
	if wireBytes == 0 {
		wireBytes = 64
	}
	c.meter.RPC(1)
	c.meter.Net(wireBytes)
	c.traffic.Upload(wireBytes)
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	var resp response
	if err := c.exchange(&req, &resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// exchange performs one framed request/response exchange. The caller
// holds c.mu. Any failure — including a frame that fails its checksum or
// bounds checks — poisons the connection: the strict request/response
// pairing is lost either way.
func (c *NetClient) exchange(req *request, resp *response) error {
	bp := getFrameBuf()
	buf := frame.Begin((*bp)[:0])
	buf, err := appendRequest(buf, req)
	if err == nil {
		err = frame.Finish(buf, 0, MaxFrameSize)
	}
	if err == nil {
		_, err = c.conn.Write(buf)
	}
	*bp = buf[:0]
	putFrameBuf(bp)
	if err != nil {
		c.broken = true
		return &TransportError{Phase: "send", Err: err}
	}
	payload, err := frame.Read(c.br, c.rbuf, MaxFrameSize)
	if err != nil {
		c.broken = true
		return &TransportError{Phase: "recv", Err: err}
	}
	c.rbuf = payload // keep the grown scratch for the next response
	if err := decodeResponse(payload, resp); err != nil {
		c.broken = true
		return &TransportError{Phase: "recv", Err: err}
	}
	return nil
}

// Register implements Endpoint.
func (c *NetClient) Register() (uint32, error) { return c.id, nil }

// Push implements Endpoint.
func (c *NetClient) Push(b *Batch) (*PushReply, error) {
	b.Client = c.id
	resp, err := c.roundTrip(request{Op: "push", B: b}, b.WireSize())
	if err != nil {
		return nil, err
	}
	c.meter.Net(resp.Push.WireSize())
	c.traffic.Download(resp.Push.WireSize())
	return resp.Push, nil
}

// Fetch implements Endpoint.
func (c *NetClient) Fetch(path string) (*FetchReply, error) {
	resp, err := c.roundTrip(request{Op: "fetch", Path: path}, 0)
	if err != nil {
		return nil, err
	}
	c.meter.Net(resp.Fetch.WireSize())
	c.traffic.Download(resp.Fetch.WireSize())
	return resp.Fetch, nil
}

// Head implements Endpoint.
func (c *NetClient) Head(path string) (version.ID, bool, error) {
	resp, err := c.roundTrip(request{Op: "head", Path: path}, 0)
	if err != nil {
		return version.ID{}, false, err
	}
	c.meter.Net(32)
	c.traffic.Download(32)
	return resp.Ver, resp.Exists, nil
}

// FetchRange implements Endpoint.
func (c *NetClient) FetchRange(path string, off, n int64) ([]byte, error) {
	resp, err := c.roundTrip(request{Op: "fetchrange", Path: path, Off: off, N: n}, 0)
	if err != nil {
		return nil, err
	}
	c.meter.Net(int64(len(resp.Data)) + 32)
	c.traffic.Download(int64(len(resp.Data)) + 32)
	return resp.Data, nil
}

// Poll implements Endpoint.
func (c *NetClient) Poll() ([]*Batch, error) {
	resp, err := c.roundTrip(request{Op: "poll"}, 0)
	if err != nil {
		return nil, err
	}
	var size int64 = 16
	for _, b := range resp.Batches {
		size += b.WireSize()
	}
	c.meter.Net(size)
	c.traffic.Download(size)
	return resp.Batches, nil
}

// Close implements Endpoint.
func (c *NetClient) Close() error { return c.conn.Close() }

var _ Endpoint = (*NetClient)(nil)

// SelfSignedTLS generates an in-memory self-signed certificate and returns
// matching server and client TLS configurations — the stdlib stand-in for
// the paper's OpenSSL link encryption.
func SelfSignedTLS() (serverConf, clientConf *tls.Config, err error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "deltacfs"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IsCA:         true,
		DNSNames:     []string{"localhost"},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	serverConf = &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}},
		MinVersion:   tls.VersionTLS12,
	}
	clientConf = &tls.Config{RootCAs: pool, ServerName: "localhost", MinVersion: tls.VersionTLS12}
	return serverConf, clientConf, nil
}
