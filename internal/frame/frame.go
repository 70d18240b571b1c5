// Package frame is the module's one serialisation: the wire protocol and
// every persisted file (kvstore WAL and snapshot, undo-log snapshot, server
// snapshot, trace files) are sequences of the same checksummed frame.
//
// Frame layout (all integers little-endian):
//
//	offset 0  u32  payload length N (N ≥ 1)
//	offset 4  u32  CRC32-C of the payload
//	offset 8  [N]  payload
//
// The CRC makes corruption a deterministic, typed decode error instead of
// whatever field the flipped byte happened to land in. Within a payload:
//
//   - strings are u32 length + bytes
//   - byte slices are u8 presence (0 = nil) + u32 length + bytes, so nil vs
//     empty round-trips exactly
//   - slices are u8 presence + u32 count + elements
//
// Every decoded length and count is bounded by the bytes actually remaining
// before it sizes an allocation: decoders are trust boundaries, and hostile
// input (oversized lengths, truncated frames, counts past the buffer) must
// die here, not in an allocator or an index expression.
//
// Files are frame sequences (Writer, Scanner): a header frame carrying the
// file kind's magic and version, tagged record frames, and an end frame
// (tag TagEnd) carrying the count of frames before it, so a file cut at a
// frame boundary is detected. A byte string that may exceed SplitSize travels as a length
// at the end of its record frame followed by consecutive continuation
// frames (Writer.EmitLong, Scanner.Long), so no persisted structure is
// limited by the frame size.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// HeaderSize is the fixed length+CRC prefix of every frame.
const HeaderSize = 8

// MaxPayload bounds one persisted frame's payload. Byte strings that can
// grow without bound are split at SplitSize, so only a single kvstore value
// or trace write could approach it.
const MaxPayload = math.MaxInt32

// SplitSize is the largest continuation frame EmitLong writes: a byte string
// longer than this spans several frames, each exactly SplitSize bytes but
// the last. Decoders require that exact split, so every value has one
// encoding.
const SplitSize = 1 << 20

// TagEnd is the record tag of a file's end frame: the tag, then the u64
// count of frames before it.
const TagEnd = 0

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum returns the CRC32-C a frame header carries for payload.
func checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Begin appends the frame header placeholder to buf.
func Begin(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Finish fills in the header of a frame whose payload was appended after
// Begin. start is the offset Begin was called at; max bounds the payload.
func Finish(buf []byte, start, max int) error { return FinishTail(buf, start, nil, max) }

// FinishTail is Finish for a payload that continues past buf with tail,
// which the caller writes straight after buf — a large value reaches the
// writer without being copied into the frame buffer.
func FinishTail(buf []byte, start int, tail []byte, max int) error {
	n := len(buf) - start - HeaderSize + len(tail)
	if n < 1 || n > max {
		return fmt.Errorf("frame: payload %d bytes out of range [1, %d]", n, max)
	}
	crc := crc32.Update(checksum(buf[start+HeaderSize:]), castagnoli, tail)
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return nil
}

// Read reads one frame of at most max payload bytes from r, reusing scratch
// when it is big enough, and returns the verified payload. The caller owns
// the returned slice (which may be the grown scratch).
func Read(r io.Reader, scratch []byte, max int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || uint64(n) > uint64(max) {
		return nil, fmt.Errorf("frame: length %d out of range [1, %d]", n, max)
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	var payload []byte
	if uint32(cap(scratch)) >= n {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("frame: truncated: %w", err)
	}
	if got := checksum(payload); got != want {
		return nil, fmt.Errorf("frame: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// Next splits the frame at the head of data, returning its verified payload
// (aliasing data) and the bytes after it. It never reads past data, so the
// claimed length is bounded by the input itself. Empty data returns io.EOF.
func Next(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	if len(data) < HeaderSize {
		return nil, nil, fmt.Errorf("frame: truncated header: %w", io.ErrUnexpectedEOF)
	}
	n := uint64(binary.LittleEndian.Uint32(data[:4]))
	if n < 1 || n > uint64(len(data)-HeaderSize) {
		return nil, nil, fmt.Errorf("frame: length %d out of range [1, %d]: %w", n, len(data)-HeaderSize, io.ErrUnexpectedEOF)
	}
	payload = data[HeaderSize : HeaderSize+n]
	if got, want := checksum(payload), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, nil, fmt.Errorf("frame: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, data[HeaderSize+n:], nil
}

// --- encoding (append-style, no intermediate allocations) ---

func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func AppendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

func AppendStr(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

func AppendBytes(b []byte, data []byte) []byte {
	if data == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendU32(b, uint32(len(data)))
	return append(b, data...)
}

// AppendSliceHdr writes the presence byte + count for a slice; isNil
// distinguishes nil from empty.
func AppendSliceHdr(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	b = append(b, 1)
	return AppendU32(b, uint32(n))
}

// --- decoding (bounds-checked reader over one payload) ---

// Reader walks a payload. The first decode error sticks; all later reads
// return zero values, so call sites stay linear and the error is checked
// once at the end.
type Reader struct {
	data []byte
	off  int
	// copyData forces byte-slice fields to be copied out of data. When
	// false, decoded slices alias data, and the caller must retain it
	// unmodified for as long as they live.
	copyData bool
	err      error
}

// NewReader returns a Reader over data.
func NewReader(data []byte, copyData bool) Reader {
	return Reader{data: data, copyData: copyData}
}

// Fail records a decode error unless one is already set.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("frame: decode: "+format, args...)
	}
}

// Err returns the first decode error.
func (r *Reader) Err() error { return r.err }

// remaining returns the number of unread payload bytes.
func (r *Reader) remaining() int { return len(r.data) - r.off }

// Rest returns the unread payload bytes without consuming them.
func (r *Reader) Rest() []byte { return r.data[r.off:] }

// Done fails the reader if payload bytes remain unread and returns its error.
func (r *Reader) Done() error {
	if r.err == nil && r.remaining() != 0 {
		r.Fail("%d trailing bytes", r.remaining())
	}
	return r.err
}

// Take returns the next n bytes of the payload, aliasing it. The
// remaining-length check here is the single bounds gate every field read
// funnels through.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	end := r.off + n
	if n < 0 || end < r.off || end > len(r.data) {
		r.Fail("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.data[r.off:end]
	r.off = end
	return b
}

func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Str() string {
	n := r.U32()
	if n > uint32(r.remaining()) {
		r.Fail("string length %d exceeds %d remaining", n, r.remaining())
		return ""
	}
	return string(r.Take(int(n)))
}

func (r *Reader) Bytes() []byte {
	if r.U8() == 0 {
		return nil
	}
	n := r.U32()
	if n > uint32(r.remaining()) {
		r.Fail("byte-slice length %d exceeds %d remaining", n, r.remaining())
		return nil
	}
	b := r.Take(int(n))
	if b == nil {
		return nil
	}
	if r.copyData {
		// make (not append to nil) so an empty slice stays non-nil: the
		// nil/empty distinction is part of the format.
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	return b
}

// Count reads a slice header and bounds the claimed element count by the
// bytes remaining divided by the minimum encoded element size, so a hostile
// count can never size an allocation past the payload it arrived in.
// Returns -1 for a nil slice.
func (r *Reader) Count(minElem int) int {
	if r.U8() == 0 {
		return -1
	}
	n := r.U32()
	if minElem < 1 {
		minElem = 1
	}
	if int64(n)*int64(minElem) > int64(r.remaining()) {
		r.Fail("count %d×%d exceeds %d remaining", n, minElem, r.remaining())
		return -1
	}
	return int(n)
}

// --- frame sequences (files) ---

// Writer builds a frame sequence in memory; Flush hands the completed
// frames to an io.Writer. Building never blocks, so a caller can encode
// under its locks and write after releasing them. The zero value is ready
// to use. The first error sticks; Flush and Err report it.
type Writer struct {
	buf    []byte
	frames uint64
	err    error
}

// Begin returns the buffer with a frame header placeholder appended; append
// the payload to it and pass it to Emit.
func (w *Writer) Begin() []byte { return Begin(w.buf) }

// Emit finishes the frame Begin started in b.
func (w *Writer) Emit(b []byte) {
	if err := Finish(b, len(w.buf), MaxPayload); err != nil && w.err == nil {
		w.err = err
	}
	w.buf = b
	w.frames++
}

// EmitLong ends the frame b with data's presence byte and u64 length, emits
// it, then emits data as continuation frames of SplitSize bytes (the last
// one shorter). Scanner.Long reads it back.
func (w *Writer) EmitLong(b, data []byte) {
	if data == nil {
		w.Emit(append(b, 0))
		return
	}
	w.Emit(AppendU64(append(b, 1), uint64(len(data))))
	for len(data) > 0 {
		n := min(len(data), SplitSize)
		w.Emit(append(w.Begin(), data[:n]...))
		data = data[n:]
	}
}

// Header emits a file's header frame: its kind's magic and layout version.
func (w *Writer) Header(magic string, version uint32) {
	w.Emit(AppendU32(AppendStr(w.Begin(), magic), version))
}

// End emits the end frame recording how many frames precede it.
func (w *Writer) End() {
	w.Emit(AppendU64(append(w.Begin(), TagEnd), w.frames))
}

// Flush writes the frames emitted since the last Flush to dst.
func (w *Writer) Flush(dst io.Writer) error {
	if w.err == nil {
		_, w.err = dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// Err returns the first encode or write error.
func (w *Writer) Err() error { return w.err }

// Scanner walks a frame sequence held in memory. Every frame length is
// bounded by the bytes remaining, so decoding allocates no more than the
// input's size. Payload readers copy byte slices out, so decoded values
// never pin the input buffer.
type Scanner struct {
	data   []byte
	frames uint64 // frames returned by Next
	err    error
}

// NewScanner returns a Scanner over data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Next returns a Reader over the next frame's payload. At the end of the
// data, or after an error, the Reader carries the error instead.
func (s *Scanner) Next() *Reader {
	r := &Reader{copyData: true}
	if s.err == nil {
		var payload []byte
		payload, s.data, s.err = Next(s.data)
		if s.err == io.EOF {
			s.err = fmt.Errorf("frame: missing end frame: %w", io.ErrUnexpectedEOF)
		}
		r.data = payload
		s.frames++
	}
	r.err = s.err
	return r
}

// Long reads the presence byte and length EmitLong ended r's frame with,
// then gathers the continuation frames that follow. The claimed length is
// bounded by the bytes left in the sequence before anything is allocated.
func (s *Scanner) Long(r *Reader) []byte {
	if r.U8() == 0 {
		return nil
	}
	n := r.U64()
	if r.Done() != nil {
		return nil
	}
	if n > uint64(len(s.data)) {
		r.Fail("long value of %d bytes exceeds the %d left: %w", n, len(s.data), io.ErrUnexpectedEOF)
		return nil
	}
	out := make([]byte, 0, n)
	for uint64(len(out)) < n {
		want := min(n-uint64(len(out)), SplitSize)
		c := s.Next()
		if c.err == nil && uint64(len(c.data)) != want {
			c.Fail("continuation frame of %d bytes, want %d", len(c.data), want)
		}
		if c.err != nil {
			r.err = c.err
			return nil
		}
		out = append(out, c.data...)
	}
	return out
}

// Header reads the header frame and refuses any other magic or version: a
// layout change bumps the version, and files of any other version are
// refused rather than converted.
func (s *Scanner) Header(magic string, version uint32) error {
	r := s.Next()
	m, v := r.Str(), r.U32()
	if err := r.Done(); err != nil {
		return err
	}
	if m != magic {
		return fmt.Errorf("frame: magic %q, want %q", m, magic)
	}
	if v != version {
		return fmt.Errorf("frame: %s version %d unsupported (this build reads only version %d)", magic, v, version)
	}
	return nil
}

// End checks the end frame r (its TagEnd already read) against the number
// of frames before it, and that nothing follows it.
func (s *Scanner) End(r *Reader) error {
	if got := r.U64(); r.err == nil && got != s.frames-1 {
		r.Fail("end frame counts %d frames, %d precede it", got, s.frames-1)
	}
	if err := r.Done(); err != nil {
		return err
	}
	if len(s.data) != 0 {
		return fmt.Errorf("frame: %d bytes after the end frame", len(s.data))
	}
	return nil
}
