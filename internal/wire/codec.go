package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
	"repro/internal/rsync"
	"repro/internal/version"
)

// The wire codec: a hand-rolled, length-prefixed little-endian format with
// one frame per message and one allocation per push (the frame buffer
// itself, which the decoded batch aliases and the server then retains for
// the journal and forwarding fan-out — encode once, reuse everywhere). A
// client opens every connection with the codecMagic preamble, which the
// server checks once before the first frame (transport.go).
//
// Each message is one internal/frame frame (u32 length ≤ MaxFrameSize,
// u32 CRC32-C, payload) whose payload starts with the msgKind byte; field
// encodings and the bounded decoder are frame's. The CRC makes corruption
// (fault injection flips bytes below the codec) a deterministic, typed
// decode error, and every wire-derived length and count is bounds-checked
// against the bytes remaining in the frame before it sizes an allocation.

// BinaryCodecVersion is the frame-format version carried in the codec
// magic. Bump it when the payload layout changes incompatibly; the server
// closes any connection whose preamble carries a version it does not speak,
// so mismatched peers fail at dial instead of misparsing each other.
const BinaryCodecVersion = 1

// codecMagic is the preamble a client sends immediately after connect.
var codecMagic = [4]byte{0x00, 'D', 'C', BinaryCodecVersion}

// MaxFrameSize bounds one frame's payload. Large enough for a whole-file
// upload batch at the biggest workload scale (131 MiB), small enough that a
// hostile or corrupted length prefix cannot ask the decoder for gigabytes.
const MaxFrameSize = 1 << 28

// Message kinds (payload byte 0).
const (
	msgRequest  = 1
	msgResponse = 2
)

// Request ops (payload byte 1 of a request).
const (
	opRegister   = 1
	opAttach     = 2
	opPush       = 3
	opFetch      = 4
	opHead       = 5
	opFetchRange = 6
	opPoll       = 7
)

// batchEncodes counts binary batch-payload encodes process-wide. The
// single-encode discipline is asserted by tests as a delta on this counter:
// a push journaled and fanned out to N peers must cost at most one encode
// (zero when the batch arrived over the transport, whose decode
// retains the wire bytes).
var batchEncodes atomic.Int64

// BatchEncodes returns the process-wide count of binary batch-payload
// encodes performed so far.
func BatchEncodes() int64 { return batchEncodes.Load() }

// EncodedBatch pairs a decoded batch with its binary wire payload, encoded
// at most once and shared — immutably — by everything downstream of a push:
// the journal appends these exact bytes, every sharing peer's outbox holds
// this same value, and poll responses splice the bytes verbatim.
// Batches that arrive over the transport are born with their payload (the
// decoder aliases the frame buffer, so the encode count is zero); batches
// from in-process callers encode lazily on first use.
//
// The contract is immutability: neither the Batch nor the payload may be
// mutated after construction. The server's apply path copies extent/chunk
// data out rather than retaining it, and outbox compaction moves only the
// pointers, so sharing is safe.
type EncodedBatch struct {
	b    *Batch
	once sync.Once
	raw  []byte
}

// NewEncodedBatch wraps an in-process batch; the payload is encoded lazily
// on first Bytes call.
func NewEncodedBatch(b *Batch) *EncodedBatch { return &EncodedBatch{b: b} }

// NewEncodedBatchRaw wraps a batch together with its already-encoded binary
// payload (the transport's decode path: raw is the frame payload the batch's
// slices alias, retained so no re-encode is ever needed).
func NewEncodedBatchRaw(b *Batch, raw []byte) *EncodedBatch {
	return &EncodedBatch{b: b, raw: raw}
}

// Batch returns the decoded batch.
func (eb *EncodedBatch) Batch() *Batch { return eb.b }

// Bytes returns the batch's binary payload, encoding it on first call if the
// batch did not arrive with its wire bytes. The returned slice is shared and
// must not be modified.
func (eb *EncodedBatch) Bytes() []byte {
	eb.once.Do(func() {
		if eb.raw == nil {
			eb.raw = AppendBatch(nil, eb.b)
		}
	})
	return eb.raw
}

// frame buffer pool — scratch for encoding frames and reading responses.
// Buffers that end up retained (push frames the server keeps) are allocated
// outside the pool.

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte  { return framePool.Get().(*[]byte) }
func putFrameBuf(p *[]byte) { framePool.Put(p) }

// --- encoding (append-style, no intermediate allocations) ---

// AppendVersion appends v's encoding: client u32, count u64.
func AppendVersion(b []byte, v version.ID) []byte {
	b = frame.AppendU32(b, v.Client)
	return frame.AppendU64(b, v.Count)
}

// AppendBatch appends b's binary payload to dst and returns the extended
// slice. This is the single place batch payloads are produced; each call
// increments the process-wide encode counter BatchEncodes reports.
func AppendBatch(dst []byte, b *Batch) []byte {
	batchEncodes.Add(1)
	dst = frame.AppendU32(dst, b.Client) // fixed offset 0: the server rebinds it in place
	dst = frame.AppendU64(dst, b.Seq)
	var flags byte
	if b.Atomic {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = frame.AppendSliceHdr(dst, len(b.Nodes), b.Nodes == nil)
	for _, n := range b.Nodes {
		dst = appendNode(dst, n)
	}
	return dst
}

func appendNode(dst []byte, n *Node) []byte {
	dst = append(dst, byte(n.Kind))
	dst = frame.AppendStr(dst, n.Path)
	dst = frame.AppendStr(dst, n.Dst)
	dst = frame.AppendStr(dst, n.BasePath)
	dst = frame.AppendI64(dst, n.Size)
	dst = frame.AppendI64(dst, n.PayloadWire)
	dst = AppendVersion(dst, n.Base)
	dst = AppendVersion(dst, n.Ver)
	dst = frame.AppendSliceHdr(dst, len(n.Extents), n.Extents == nil)
	for _, e := range n.Extents {
		dst = frame.AppendI64(dst, e.Off)
		dst = frame.AppendBytes(dst, e.Data)
	}
	if n.Delta == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = frame.AppendI64(dst, int64(n.Delta.BlockSize))
		dst = frame.AppendI64(dst, n.Delta.BaseLen)
		dst = frame.AppendI64(dst, n.Delta.TargetLen)
		dst = frame.AppendSliceHdr(dst, len(n.Delta.Ops), n.Delta.Ops == nil)
		for _, op := range n.Delta.Ops {
			dst = append(dst, byte(op.Kind))
			dst = frame.AppendI64(dst, op.Off)
			dst = frame.AppendI64(dst, op.Len)
			dst = frame.AppendBytes(dst, op.Data)
		}
	}
	dst = frame.AppendBytes(dst, n.Full)
	dst = frame.AppendSliceHdr(dst, len(n.Chunks), n.Chunks == nil)
	for _, c := range n.Chunks {
		dst = append(dst, c.Hash[:]...)
		dst = frame.AppendI64(dst, c.Len)
		dst = frame.AppendBytes(dst, c.Data)
	}
	return dst
}

// AppendPushReply appends r's binary encoding to dst.
func AppendPushReply(dst []byte, r *PushReply) []byte {
	dst = frame.AppendSliceHdr(dst, len(r.Statuses), r.Statuses == nil)
	for _, s := range r.Statuses {
		dst = append(dst, byte(s))
	}
	dst = frame.AppendSliceHdr(dst, len(r.Conflicts), r.Conflicts == nil)
	for _, c := range r.Conflicts {
		dst = frame.AppendStr(dst, c)
	}
	var flags byte
	if r.Throttled {
		flags |= 1
	}
	dst = append(dst, flags)
	return frame.AppendStr(dst, r.Err)
}

func appendFetchReply(dst []byte, r *FetchReply) []byte {
	dst = frame.AppendBytes(dst, r.Content)
	dst = AppendVersion(dst, r.Ver)
	var flags byte
	if r.Exists {
		flags |= 1
	}
	return append(dst, flags)
}

// appendRequest appends the binary payload for req. Push requests encode the
// batch inline (the client side's single encode).
func appendRequest(dst []byte, req *request) ([]byte, error) {
	dst = append(dst, msgRequest)
	switch req.Op {
	case "register":
		dst = append(dst, opRegister)
		dst = frame.AppendU32(dst, req.Group)
	case "attach":
		dst = append(dst, opAttach)
		dst = frame.AppendU32(dst, req.Client)
	case "push":
		if req.B == nil {
			return nil, fmt.Errorf("wire: push request without batch")
		}
		dst = append(dst, opPush)
		dst = AppendBatch(dst, req.B)
	case "fetch":
		dst = append(dst, opFetch)
		dst = frame.AppendStr(dst, req.Path)
	case "head":
		dst = append(dst, opHead)
		dst = frame.AppendStr(dst, req.Path)
	case "fetchrange":
		dst = append(dst, opFetchRange)
		dst = frame.AppendStr(dst, req.Path)
		dst = frame.AppendI64(dst, req.Off)
		dst = frame.AppendI64(dst, req.N)
	case "poll":
		dst = append(dst, opPoll)
	default:
		return nil, fmt.Errorf("wire: unknown request op %q", req.Op)
	}
	return dst, nil
}

// appendResponse appends the binary payload for resp. Poll responses splice
// the already-encoded batch payloads from ebs verbatim — the server never
// re-encodes a batch per poller.
func appendResponse(dst []byte, resp *response, ebs []*EncodedBatch) []byte {
	dst = append(dst, msgResponse)
	dst = frame.AppendStr(dst, resp.Err)
	dst = frame.AppendU32(dst, resp.Client)
	if resp.Push == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = AppendPushReply(dst, resp.Push)
	}
	if resp.Fetch == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendFetchReply(dst, resp.Fetch)
	}
	dst = AppendVersion(dst, resp.Ver)
	var flags byte
	if resp.Exists {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = frame.AppendBytes(dst, resp.Data)
	switch {
	case ebs != nil:
		dst = frame.AppendSliceHdr(dst, len(ebs), false)
		for _, eb := range ebs {
			raw := eb.Bytes()
			dst = frame.AppendU32(dst, uint32(len(raw)))
			dst = append(dst, raw...)
		}
	case resp.Batches != nil:
		dst = frame.AppendSliceHdr(dst, len(resp.Batches), false)
		for _, b := range resp.Batches {
			// Length placeholder, then the payload, then patch the length.
			at := len(dst)
			dst = frame.AppendU32(dst, 0)
			dst = AppendBatch(dst, b)
			binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		}
	default:
		dst = append(dst, 0)
	}
	return dst
}

// --- decoding (frame.Reader over one frame payload) ---

// ReadVersion decodes a version AppendVersion wrote.
func ReadVersion(r *frame.Reader) version.ID {
	return version.ID{Client: r.U32(), Count: r.U64()}
}

// Minimum encoded sizes used to bound slice counts: the fewest bytes one
// element can occupy on the wire (empty strings, nil sub-slices).
const (
	minNodeSize   = 57 // kind + 3 empty strings + size + payloadWire + 2 versions + 4 nil markers
	minExtentSize = 9  // off + nil data
	minOpSize     = 18 // kind + off + len + nil data
	minChunkSize  = 25 // hash + len + nil data
	minBatchSize  = 14 // client + seq + flags + nil nodes marker
	minStringSize = 4
	minSubBatch   = 4 + minBatchSize
)

// DecodeBatchPayload decodes one batch payload (the format AppendBatch
// produces). When alias is true, byte-slice fields alias data — the caller
// must retain data unmodified for the batch's lifetime (the transport does,
// via EncodedBatch). When false, all byte slices are copied out.
func DecodeBatchPayload(data []byte, alias bool) (*Batch, error) {
	r := frame.NewReader(data, !alias)
	b := readBatch(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

func readBatch(r *frame.Reader) *Batch {
	b := &Batch{}
	b.Client = r.U32()
	b.Seq = r.U64()
	b.Atomic = r.U8()&1 != 0
	n := r.Count(minNodeSize)
	if n >= 0 {
		if n > MaxBatchNodes {
			r.Fail("batch of %d nodes exceeds %d", n, MaxBatchNodes)
			return b
		}
		b.Nodes = make([]*Node, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			b.Nodes = append(b.Nodes, readNode(r))
		}
	}
	return b
}

func readNode(r *frame.Reader) *Node {
	n := &Node{}
	n.Kind = NodeKind(r.U8())
	n.Path = r.Str()
	n.Dst = r.Str()
	n.BasePath = r.Str()
	n.Size = r.I64()
	n.PayloadWire = r.I64()
	n.Base = ReadVersion(r)
	n.Ver = ReadVersion(r)
	if c := r.Count(minExtentSize); c >= 0 {
		n.Extents = make([]Extent, 0, c)
		for i := 0; i < c && r.Err() == nil; i++ {
			n.Extents = append(n.Extents, Extent{Off: r.I64(), Data: r.Bytes()})
		}
	}
	if r.U8() != 0 {
		d := &rsync.Delta{}
		d.BlockSize = int(r.I64())
		d.BaseLen = r.I64()
		d.TargetLen = r.I64()
		if c := r.Count(minOpSize); c >= 0 {
			d.Ops = make([]rsync.Op, 0, c)
			for i := 0; i < c && r.Err() == nil; i++ {
				d.Ops = append(d.Ops, rsync.Op{
					Kind: rsync.OpKind(r.U8()),
					Off:  r.I64(),
					Len:  r.I64(),
					Data: r.Bytes(),
				})
			}
		}
		n.Delta = d
	}
	n.Full = r.Bytes()
	if c := r.Count(minChunkSize); c >= 0 {
		n.Chunks = make([]ChunkRef, 0, c)
		for i := 0; i < c && r.Err() == nil; i++ {
			var ch ChunkRef
			copy(ch.Hash[:], r.Take(16))
			ch.Len = r.I64()
			ch.Data = r.Bytes()
			n.Chunks = append(n.Chunks, ch)
		}
	}
	return n
}

// ReadPushReply decodes a push reply AppendPushReply wrote.
func ReadPushReply(r *frame.Reader) *PushReply {
	p := &PushReply{}
	if c := r.Count(1); c >= 0 {
		raw := r.Take(c)
		p.Statuses = make([]ApplyStatus, c)
		for i := 0; i < c && raw != nil; i++ {
			p.Statuses[i] = ApplyStatus(raw[i])
		}
	}
	if c := r.Count(minStringSize); c >= 0 {
		p.Conflicts = make([]string, 0, c)
		for i := 0; i < c && r.Err() == nil; i++ {
			p.Conflicts = append(p.Conflicts, r.Str())
		}
	}
	p.Throttled = r.U8()&1 != 0
	p.Err = r.Str()
	return p
}

func readFetchReply(r *frame.Reader) *FetchReply {
	f := &FetchReply{}
	f.Content = r.Bytes()
	f.Ver = ReadVersion(r)
	f.Exists = r.U8()&1 != 0
	return f
}

// decodeRequest parses a request frame payload into req. For push requests
// it returns the batch's raw payload sub-slice (aliasing payload), which the
// caller must retain; for all other ops it returns nil.
func decodeRequest(payload []byte, req *request) ([]byte, error) {
	rd := frame.NewReader(payload, false)
	r := &rd
	if k := r.U8(); k != msgRequest {
		return nil, fmt.Errorf("wire: decode: message kind %d, want request", k)
	}
	var batchRaw []byte
	switch op := r.U8(); op {
	case opRegister:
		req.Op = "register"
		req.Group = r.U32()
	case opAttach:
		req.Op = "attach"
		req.Client = r.U32()
	case opPush:
		req.Op = "push"
		batchRaw = r.Rest()
		req.B = readBatch(r)
	case opFetch:
		req.Op = "fetch"
		req.Path = r.Str()
	case opHead:
		req.Op = "head"
		req.Path = r.Str()
	case opFetchRange:
		req.Op = "fetchrange"
		req.Path = r.Str()
		req.Off = r.I64()
		req.N = r.I64()
	case opPoll:
		req.Op = "poll"
	default:
		return nil, fmt.Errorf("wire: decode: unknown request op %d", op)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return batchRaw, nil
}

// decodeResponse parses a response frame payload into resp. All byte slices
// are copied out of payload (the client pools its read buffer).
func decodeResponse(payload []byte, resp *response) error {
	rd := frame.NewReader(payload, true)
	r := &rd
	if k := r.U8(); k != msgResponse {
		return fmt.Errorf("wire: decode: message kind %d, want response", k)
	}
	resp.Err = r.Str()
	resp.Client = r.U32()
	if r.U8() != 0 {
		resp.Push = ReadPushReply(r)
	}
	if r.U8() != 0 {
		resp.Fetch = readFetchReply(r)
	}
	resp.Ver = ReadVersion(r)
	resp.Exists = r.U8()&1 != 0
	resp.Data = r.Bytes()
	if c := r.Count(minSubBatch); c >= 0 {
		resp.Batches = make([]*Batch, 0, c)
		for i := 0; i < c && r.Err() == nil; i++ {
			n := r.U32()
			sub := r.Take(int(n))
			if sub == nil {
				break
			}
			b, err := DecodeBatchPayload(sub, false)
			if err != nil {
				r.Fail("poll batch %d: %v", i, err)
				break
			}
			resp.Batches = append(resp.Batches, b)
		}
	}
	return r.Done()
}
