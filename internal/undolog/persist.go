package undolog

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"

	"repro/internal/frame"
	"repro/internal/storagefault"
)

// Snapshot persistence for the undo log. The in-memory log is cheap to
// rebuild between sync points, but a client that crashes mid-update loses
// the pre-update image it needs to reconstruct the old version for delta
// encoding — it would fall back to shipping full content. SaveTo captures
// the log through storagefault.ReplaceFile as an internal/frame sequence
// whose every frame carries a CRC, so a torn snapshot is detected and
// discarded (stale-but-consistent beats fresh-but-corrupt: LoadFrom of a bad
// snapshot reports ErrCorrupt and leaves the log empty).
//
// Layout: header frame, then per file (in path order) a file frame — path,
// old size, preserved bytes, segment count — followed by one frame per
// segment (offset, then its data as a long value spanning continuation
// frames), then the end frame.

// ErrCorrupt is returned by LoadFrom when the snapshot fails to decode — a
// torn, bit-flipped or foreign file. The caller should discard it and
// resync.
var ErrCorrupt = errors.New("undolog: corrupt snapshot")

const (
	snapMagic   = "undolog snapshot"
	snapVersion = 1
	tagFile     = 1
	tagSegment  = 2
)

// SaveTo writes the log atomically to path on fsys (nil means the host file
// system).
func (l *Log) SaveTo(fsys storagefault.FS, path string) error {
	if fsys == nil {
		fsys = storagefault.OS
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	err := storagefault.ReplaceFile(fsys, path, func(w io.Writer) error {
		var fw frame.Writer
		fw.Header(snapMagic, snapVersion)
		for _, p := range paths {
			f := l.files[p]
			b := append(fw.Begin(), tagFile)
			b = frame.AppendStr(b, p)
			b = frame.AppendI64(b, f.oldSize)
			b = frame.AppendI64(b, f.preservedBytes)
			fw.Emit(frame.AppendU32(b, uint32(len(f.segments))))
			for _, s := range f.segments {
				fw.EmitLong(frame.AppendI64(append(fw.Begin(), tagSegment), s.off), s.data)
			}
		}
		fw.End()
		return fw.Flush(w)
	})
	if err != nil {
		return fmt.Errorf("undolog: save: %w", err)
	}
	return nil
}

// LoadFrom replaces the log's contents with the snapshot at path on fsys
// (nil means the host file system). A missing file is not an error (fresh
// log, returns false). A snapshot that fails to decode returns ErrCorrupt
// with the log left empty.
func (l *Log) LoadFrom(fsys storagefault.FS, path string) (bool, error) {
	if fsys == nil {
		fsys = storagefault.OS
	}
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("undolog: load: %w", err)
	}
	files, err := decodeSnapshot(raw)
	if err != nil {
		l.files = make(map[string]*FileLog)
		return false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	l.files = files
	return true, nil
}

// decodeSnapshot decodes a whole snapshot before anything is installed.
func decodeSnapshot(raw []byte) (map[string]*FileLog, error) {
	sc := frame.NewScanner(raw)
	if err := sc.Header(snapMagic, snapVersion); err != nil {
		return nil, err
	}
	files := make(map[string]*FileLog)
	for {
		r := sc.Next()
		switch tag := r.U8(); tag {
		case frame.TagEnd:
			return files, sc.End(r)
		case tagFile:
		default:
			r.Fail("record tag %d, want a file", tag)
		}
		p := r.Str()
		f := &FileLog{oldSize: r.I64(), preservedBytes: r.I64()}
		segs := r.U32()
		if err := r.Done(); err != nil {
			return nil, err
		}
		for i := uint32(0); i < segs; i++ {
			r := sc.Next()
			if tag := r.U8(); tag != tagSegment {
				r.Fail("record tag %d, want a segment", tag)
			}
			s := segment{off: r.I64()}
			s.data = sc.Long(r)
			if err := r.Err(); err != nil {
				return nil, err
			}
			f.segments = append(f.segments, s)
		}
		files[p] = f
	}
}
