package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// A serialized trace is an internal/frame sequence: the header frame, an
// info record (name, description, byte totals), one record per setup op,
// one record per timed trace op, and the end frame.
// Setup state is stored as explicit ops so a loaded trace is fully
// self-contained.
const (
	fileMagic   = "deltacfs trace"
	fileVersion = 2

	tagInfo  = 1 // name, desc, update bytes, write bytes
	tagSetup = 2 // op
	tagOp    = 3 // timestamp, op
)

func appendOp(b []byte, op vfs.Op) []byte {
	b = append(b, byte(op.Kind))
	b = frame.AppendStr(b, op.Path)
	b = frame.AppendStr(b, op.Dst)
	b = frame.AppendI64(b, op.Off)
	b = frame.AppendI64(b, op.Size)
	return frame.AppendBytes(b, op.Data)
}

func readOp(r *frame.Reader) vfs.Op {
	op := vfs.Op{Kind: vfs.OpKind(r.U8()), Path: r.Str(), Dst: r.Str(), Off: r.I64(), Size: r.I64(), Data: r.Bytes()}
	if op.Kind < vfs.OpCreate || op.Kind > vfs.OpFsync {
		r.Fail("unknown op kind %d", op.Kind)
	}
	return op
}

// Save serializes the trace — including its setup state — to w. The trace's
// Setup and Run are executed once to produce the stream.
func Save(tr *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var fw frame.Writer
	fw.Header(fileMagic, fileVersion)
	b := frame.AppendStr(append(fw.Begin(), tagInfo), tr.Name)
	b = frame.AppendStr(b, tr.Desc)
	b = frame.AppendI64(b, tr.UpdateBytes)
	fw.Emit(frame.AppendI64(b, tr.WriteBytes))
	if tr.Setup != nil {
		// Setup runs against a scratch MemFS; the observer records the ops
		// it issues, so setup state is saved without duplicating generator
		// logic.
		fs := vfs.NewObserverFS(vfs.NewMemFS())
		fs.Subscribe(vfs.ObserverFunc(func(op vfs.Op) {
			fw.Emit(appendOp(append(fw.Begin(), tagSetup), op))
		}))
		if err := tr.Setup(fs); err != nil {
			return fmt.Errorf("trace: record setup: %w", err)
		}
	}
	err := tr.Run(func(op vfs.Op, at time.Duration) error {
		if at < 0 {
			return errors.New("trace: negative timestamp")
		}
		fw.Emit(appendOp(frame.AppendI64(append(fw.Begin(), tagOp), int64(at)), op))
		return fw.Flush(bw)
	})
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	fw.End()
	if err := fw.Flush(bw); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

type timedOp struct {
	op vfs.Op
	at time.Duration
}

// Load reads a trace serialized by Save. The returned trace's Run streams
// records from the decoded payload held in memory.
func Load(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	tr, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	return tr, nil
}

func decode(data []byte) (*Trace, error) {
	sc := frame.NewScanner(data)
	if err := sc.Header(fileMagic, fileVersion); err != nil {
		return nil, err
	}
	tr := &Trace{}
	var setup []vfs.Op
	var ops []timedOp
	for {
		r := sc.Next()
		switch tag := r.U8(); tag {
		case frame.TagEnd:
			if err := sc.End(r); err != nil {
				return nil, err
			}
			tr.Setup = func(fs vfs.FS) error {
				for _, op := range setup {
					if err := vfs.Apply(fs, op); err != nil {
						return err
					}
				}
				return nil
			}
			tr.Run = func(emit Emit) error {
				for _, rec := range ops {
					if err := emit(rec.op, rec.at); err != nil {
						return err
					}
				}
				return nil
			}
			return tr, nil
		case tagInfo:
			tr.Name, tr.Desc, tr.UpdateBytes, tr.WriteBytes = r.Str(), r.Str(), r.I64(), r.I64()
		case tagSetup:
			setup = append(setup, readOp(r))
		case tagOp:
			at := time.Duration(r.I64())
			if at < 0 {
				r.Fail("negative timestamp %d", at)
			}
			ops = append(ops, timedOp{op: readOp(r), at: at})
		default:
			r.Fail("unknown record tag %d", tag)
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
	}
}
