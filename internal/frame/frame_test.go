package frame

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// sequence builds a small file: header, one record carrying a long value,
// end frame.
func sequence(t *testing.T, long []byte) []byte {
	t.Helper()
	var w Writer
	w.Header("test", 7)
	w.EmitLong(AppendStr(append(w.Begin(), 1), "rec"), long)
	w.End()
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func scan(data []byte) ([]byte, error) {
	s := NewScanner(data)
	if err := s.Header("test", 7); err != nil {
		return nil, err
	}
	r := s.Next()
	r.U8()
	r.Str()
	long := s.Long(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	end := s.Next()
	if tag := end.U8(); tag != TagEnd {
		end.Fail("tag %d, want end", tag)
	}
	return long, s.End(end)
}

func TestLongValuesSpanExactSplits(t *testing.T) {
	for _, n := range []int{0, 1, SplitSize - 1, SplitSize, SplitSize + 1, 2*SplitSize + 5} {
		long := bytes.Repeat([]byte{0xab}, n)
		data := sequence(t, long)
		got, err := scan(data)
		if err != nil || !bytes.Equal(got, long) || got == nil {
			t.Fatalf("n=%d: long value did not round-trip: %v", n, err)
		}
		// Header + record + ceil(n/SplitSize) continuations + end.
		frames, want := 0, 3+(n+SplitSize-1)/SplitSize
		for rest := data; len(rest) > 0; frames++ {
			_, rest, err = Next(rest)
			if err != nil {
				t.Fatal(err)
			}
		}
		if frames != want {
			t.Fatalf("n=%d: %d frames, want %d", n, frames, want)
		}
	}
	if got, err := scan(sequence(t, nil)); err != nil || got != nil {
		t.Fatalf("nil long value came back as %v, %v", got, err)
	}
}

// A long value split at any boundary but SplitSize has a second encoding;
// the decoder refuses it so every value has exactly one.
func TestLongRejectsNonCanonicalSplit(t *testing.T) {
	var w Writer
	w.Header("test", 7)
	b := AppendStr(append(w.Begin(), 1), "rec")
	w.Emit(AppendU64(append(b, 1), 4))
	w.Emit(append(w.Begin(), 1, 2))
	w.Emit(append(w.Begin(), 3, 4))
	w.End()
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(buf.Bytes()); err == nil {
		t.Fatal("a two-frame split of a 4-byte value was accepted")
	}
}

func TestScannerRefusesDamagedSequences(t *testing.T) {
	good := sequence(t, []byte("payload"))
	var ends []int
	for rest := good; len(rest) > 0; {
		_, next, err := Next(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		ends = append(ends, len(good)-len(rest))
	}
	for _, end := range ends[:len(ends)-1] {
		if _, err := scan(good[:end]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut after %d bytes: err = %v, want unexpected EOF", end, err)
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x20
		if _, err := scan(bad); err == nil {
			t.Errorf("bit flip at byte %d accepted", i)
		}
	}
	if _, err := scan(append(append([]byte(nil), good...), good[:HeaderSize+1]...)); err == nil {
		t.Error("bytes after the end frame accepted")
	}
}

func TestHeaderNamesRefusedVersion(t *testing.T) {
	var w Writer
	w.Header("test", 3)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	err := NewScanner(buf.Bytes()).Header("test", 7)
	if err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("err = %v, want a refusal naming version 3", err)
	}
}

func TestNextBoundsLengthByInput(t *testing.T) {
	huge := AppendU32(AppendU32(nil, MaxPayload), 0)
	if _, _, err := Next(append(huge, 1, 2, 3)); err == nil {
		t.Fatal("frame claiming more bytes than the input accepted")
	}
	var w Writer
	w.Emit(w.Begin())
	if w.Err() == nil {
		t.Fatal("empty frame payload accepted")
	}
}
