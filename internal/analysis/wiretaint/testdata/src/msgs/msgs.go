// Package msgs exercises the wiretaint analyzer: wire-decoded lengths,
// offsets, and paths must be validated before allocation, slicing, or
// filesystem use.
package msgs

import (
	"os"
	"path/filepath"

	"sinks"
	"taint/internal/wire"
)

const maxLen = 1 << 20

func BadAlloc(d *wire.Delta) []byte {
	return make([]byte, d.TargetLen) // want "wire-derived length d.TargetLen used to size an allocation"
}

func OKAllocChecked(d *wire.Delta) []byte {
	if d.TargetLen > maxLen {
		return nil
	}
	return make([]byte, d.TargetLen)
}

// OKLenLaunders: the decoded buffer's actual length is ground truth, not a
// peer-claimed size.
func OKLenLaunders(d *wire.Delta) []byte {
	return make([]byte, len(d.Data))
}

// BadViaLocal: taint survives assignment through a local.
func BadViaLocal(d *wire.Delta) []byte {
	n := int(d.TargetLen)
	return make([]byte, n) // want "wire-derived length n used to size an allocation"
}

func BadSliceBound(n *wire.Node, data []byte) []byte {
	return data[:n.Size] // want "wire-derived value n.Size used as a slice bound"
}

func OKSliceChecked(n *wire.Node, data []byte) []byte {
	if n.Size > int64(len(data)) {
		return nil
	}
	return data[:n.Size]
}

func BadIndex(n *wire.Node, data []byte) byte {
	return data[n.Off] // want "wire-derived value n.Off used as an index"
}

func OKIndexChecked(n *wire.Node, data []byte) byte {
	if n.Off < 0 || n.Off >= int64(len(data)) {
		return 0
	}
	return data[n.Off]
}

// OKMaskedIndex: a bitmask bounds the index no matter what the peer sent
// (the stripe-index idiom); modulo likewise.
func OKMaskedIndex(n *wire.Node, stripes [8]int) int {
	return stripes[n.Off&7]
}

func OKModIndex(n *wire.Node, data []byte) byte {
	return data[n.Off%int64(len(data))]
}

// BadEqualityCheck: an equality comparison does not bound magnitude — a
// huge claimed length passes a != consistency check just fine.
func BadEqualityCheck(d *wire.Delta) []byte {
	out := make([]byte, 0, d.TargetLen) // want "wire-derived length d.TargetLen used to size an allocation"
	if int64(len(out)) != int64(d.TargetLen) {
		return nil
	}
	return out
}

// OKMapIndex: maps cannot over-allocate or panic on a hostile key.
func OKMapIndex(n *wire.Node, m map[string][]byte) []byte {
	return m[n.Path]
}

func BadOpen(n *wire.Node) (*os.File, error) {
	return os.Open(n.Path) // want "wire-derived path n.Path passed to Open without validation"
}

func validatePath(p string) error {
	if p != filepath.Clean(p) {
		return os.ErrInvalid
	}
	return nil
}

func OKOpenValidated(n *wire.Node) (*os.File, error) {
	if err := validatePath(n.Path); err != nil {
		return nil, err
	}
	return os.Open(n.Path)
}

// OKBatchValidated: a Validate call on the wire struct sanitizes all of its
// fields for the rest of the function.
func OKBatchValidated(b *wire.Batch) []wire.Node {
	if err := b.Validate(); err != nil {
		return nil
	}
	return make([]wire.Node, 0, b.Count)
}

// The next three pairs mirror the binary codec's reader: every wire-derived
// length funnels through a take-style gate, claimed element counts are
// bounded by the bytes actually remaining, and the undecoded tail is spliced
// off by a checked offset. The Bad variants are those shapes with the gate
// deleted — exactly what a fuzz crasher in the decoder would look like.

// BadDecoderTake: a length prefix read off the wire slices the payload with
// no bounds gate; end inherits taint through the arithmetic.
func BadDecoderTake(n *wire.Node, payload []byte) []byte {
	end := n.Off + n.Size
	return payload[n.Off:end] // want "wire-derived value n.Off used as a slice bound" "wire-derived value end used as a slice bound"
}

// OKDecoderTake is the shipped gate: overflow-safe end computation with the
// negative-length, wraparound, and past-the-end cases all rejected by
// ordered comparisons before the slice.
func OKDecoderTake(n *wire.Node, payload []byte) []byte {
	end := n.Off + n.Size
	if n.Size < 0 || end < n.Off || end > int64(len(payload)) {
		return nil
	}
	return payload[n.Off:end]
}

// BadDecoderCount: a peer-claimed element count sizes the result slice
// before a single element has been decoded.
func BadDecoderCount(b *wire.Batch) []wire.Node {
	return make([]wire.Node, 0, b.Count) // want "wire-derived length b.Count used to size an allocation"
}

// OKDecoderCount: the claimed count times the minimum encoded element size
// must fit in the bytes actually remaining, so the allocation is bounded by
// real input length rather than a 4-byte claim.
func OKDecoderCount(b *wire.Batch, remaining int) []wire.Node {
	const minElem = 57
	if int64(b.Count)*minElem > int64(remaining) {
		return nil
	}
	return make([]wire.Node, 0, b.Count)
}

// BadDecoderTail: handing the undecoded tail to another layer with an
// unchecked wire offset (the push-payload splice shape).
func BadDecoderTail(n *wire.Node, payload []byte) []byte {
	return payload[n.Off:] // want "wire-derived value n.Off used as a slice bound"
}

// OKDecoderTail: the shipped guard on the splice offset.
func OKDecoderTail(n *wire.Node, payload []byte) []byte {
	if n.Off < 0 || n.Off > int64(len(payload)) {
		return nil
	}
	return payload[n.Off:]
}

// alloc has no wire import in sight; the finding inside it is reachable
// only through the parameter-taint fixpoint over the call graph.
func alloc(n int) []byte {
	return make([]byte, n) // want `wire-derived length n used to size an allocation without a bounds check: a hostile peer controls this allocation \[wire value flows in via BadForward -> alloc\]`
}

func BadForward(d *wire.Delta) []byte {
	return alloc(int(d.TargetLen))
}

func BadCrossPackage(d *wire.Delta) []byte {
	return sinks.Alloc(int(d.TargetLen))
}

func OKCrossPackage(d *wire.Delta) []byte {
	return sinks.AllocChecked(int(d.TargetLen))
}

// BadLongChain: a loop-carried chain of five assignments, listed against
// the flow so each closure step reaches one more local. The taint closure
// runs to its fixpoint, however long the chain.
func BadLongChain(d *wire.Delta, rounds int) []byte {
	var a, b, c, e, n uint32
	for i := 0; i < rounds; i++ {
		n = e
		e = c
		c = b
		b = a
		a = d.TargetLen
	}
	return make([]byte, n) // want "wire-derived length n used to size an allocation"
}
