package wire

import (
	"hash/crc32"
	"io"

	"repro/internal/frame"
)

// Test-side names for the frame layer the codec tests build hostile frames
// and payloads with.

const frameHeaderSize = frame.HeaderSize

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendU32(b []byte, v uint32) []byte { return frame.AppendU32(b, v) }

func appendU64(b []byte, v uint64) []byte { return frame.AppendU64(b, v) }

func beginFrame(buf []byte) []byte { return frame.Begin(buf) }

func finishFrame(buf []byte, start int) error { return frame.Finish(buf, start, MaxFrameSize) }

func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	return frame.Read(r, scratch, MaxFrameSize)
}
