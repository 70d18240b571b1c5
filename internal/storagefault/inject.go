package storagefault

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
)

// Plan is a seeded, deterministic storage-fault schedule. Zero values mean
// "never": the zero Plan is a transparent passthrough. Ordinals are 1-based
// and count calls through the whole Injector, in the order its mutex
// serializes them.
type Plan struct {
	// Seed drives the torn-write split point and the corrupted bit
	// position. The same plan over the same workload injects the same
	// faults.
	Seed int64
	// FailSyncAt makes the Nth File.Sync fail with ErrSyncFailed and
	// poisons the file: every later Write or Sync on any handle for that
	// name fails with ErrPoisoned. That is the fsyncgate contract — after
	// a failed fsync the kernel has marked the dirty pages clean, so a
	// retry that reports success has silently dropped the data; the only
	// honest behaviors are "fail forever" or "rewrite from scratch".
	FailSyncAt int
	// TornWriteAt makes the Nth File.Write land only a seeded prefix and
	// return ErrTorn — the partial append a crash mid-write leaves.
	TornWriteAt int
	// WriteBudget, when positive, is the total bytes writable through the
	// injector before writes fail with ErrNoSpace (a full disk). The
	// write that crosses the budget lands partially, like a real ENOSPC.
	WriteBudget int64
	// CorruptReads flips one seeded bit in every non-empty read — the
	// latent media corruption the integrity scanner exists to catch.
	CorruptReads bool
}

// Stats counts what the injector actually did.
type Stats struct {
	Writes      int64
	Syncs       int64
	FailedSyncs int64
	TornWrites  int64
	NoSpaceErrs int64
	BitFlips    int64
	PoisonedOps int64
}

// Injector wraps an FS with the faults a Plan schedules. It is safe for
// concurrent use; fault ordinals follow its internal serialization order.
type Injector struct {
	inner FS
	plan  Plan

	mu       sync.Mutex
	rng      *rand.Rand
	written  int64
	stats    Stats
	poisoned map[string]bool
}

// NewInjector wraps inner with plan.
func NewInjector(inner FS, plan Plan) *Injector {
	return &Injector{
		inner:    inner,
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		poisoned: make(map[string]bool),
	}
}

// Inner returns the wrapped FS (crash harnesses fork and crash it).
func (in *Injector) Inner() FS { return in.inner }

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Poisoned reports whether name's earlier Sync failed.
func (in *Injector) Poisoned(name string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.poisoned[name]
}

// corrupt flips one seeded bit of p in place (in.mu held).
func (in *Injector) corrupt(p []byte, n int) {
	if !in.plan.CorruptReads || n <= 0 {
		return
	}
	i := in.rng.Intn(n)
	p[i] ^= 1 << uint(in.rng.Intn(8))
	in.stats.BitFlips++
}

type injFile struct {
	in   *Injector
	f    File
	name string
}

// admitWrite applies the poison check, the torn-write schedule and the
// ENOSPC budget to a write of len(p) bytes, returning how many bytes to
// pass through and the error to report (nil = full write).
func (in *Injector) admitWrite(name string, n int) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.poisoned[name] {
		in.stats.PoisonedOps++
		return 0, fmt.Errorf("write %s: %w", name, ErrPoisoned)
	}
	in.stats.Writes++
	if in.plan.TornWriteAt > 0 && in.stats.Writes == int64(in.plan.TornWriteAt) {
		in.stats.TornWrites++
		keep := 0
		if n > 0 {
			keep = in.rng.Intn(n)
		}
		in.written += int64(keep)
		return keep, fmt.Errorf("write %s: %w", name, ErrTorn)
	}
	if in.plan.WriteBudget > 0 {
		rem := in.plan.WriteBudget - in.written
		if rem < int64(n) {
			in.stats.NoSpaceErrs++
			keep := int(rem)
			if keep < 0 {
				keep = 0
			}
			in.written += int64(keep)
			return keep, fmt.Errorf("write %s: %w", name, ErrNoSpace)
		}
	}
	in.written += int64(n)
	return n, nil
}

func (jf *injFile) Write(p []byte) (int, error) {
	keep, ferr := jf.in.admitWrite(jf.name, len(p))
	if keep > 0 || ferr == nil {
		n, err := jf.f.Write(p[:keep])
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return keep, ferr
	}
	return len(p), nil
}

func (jf *injFile) WriteAt(p []byte, off int64) (int, error) {
	keep, ferr := jf.in.admitWrite(jf.name, len(p))
	if keep > 0 || ferr == nil {
		n, err := jf.f.WriteAt(p[:keep], off)
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return keep, ferr
	}
	return len(p), nil
}

func (jf *injFile) Sync() error {
	in := jf.in
	in.mu.Lock()
	if in.poisoned[jf.name] {
		in.stats.PoisonedOps++
		in.mu.Unlock()
		return fmt.Errorf("sync %s: %w", jf.name, ErrPoisoned)
	}
	in.stats.Syncs++
	if in.plan.FailSyncAt > 0 && in.stats.Syncs == int64(in.plan.FailSyncAt) {
		in.stats.FailedSyncs++
		in.poisoned[jf.name] = true
		in.mu.Unlock()
		// The inner Sync is deliberately not called: the dirty data never
		// reaches stable storage, exactly what a failed fsync means.
		return fmt.Errorf("sync %s: %w", jf.name, ErrSyncFailed)
	}
	in.mu.Unlock()
	return jf.f.Sync()
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := jf.f.ReadAt(p, off)
	jf.in.mu.Lock()
	jf.in.corrupt(p, n)
	jf.in.mu.Unlock()
	return n, err
}

func (jf *injFile) Truncate(size int64) error { return jf.f.Truncate(size) }
func (jf *injFile) Size() (int64, error)      { return jf.f.Size() }
func (jf *injFile) Close() error              { return jf.f.Close() }

// OpenFile implements FS.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// ReadFile implements FS (with read corruption when scheduled).
func (in *Injector) ReadFile(name string) ([]byte, error) {
	b, err := in.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.corrupt(b, len(b))
	in.mu.Unlock()
	return b, nil
}

// The namespace operations pass through untouched: the crash model for them
// lives in SimDisk, and the failure model in the Sync/Write paths above.

func (in *Injector) Rename(oldName, newName string) error { return in.inner.Rename(oldName, newName) }
func (in *Injector) Remove(name string) error             { return in.inner.Remove(name) }
func (in *Injector) Link(oldName, newName string) error   { return in.inner.Link(oldName, newName) }
func (in *Injector) Truncate(name string, size int64) error {
	return in.inner.Truncate(name, size)
}
func (in *Injector) Mkdir(name string, perm os.FileMode) error { return in.inner.Mkdir(name, perm) }
func (in *Injector) MkdirAll(name string, perm os.FileMode) error {
	return in.inner.MkdirAll(name, perm)
}
func (in *Injector) SyncDir(dir string) error          { return in.inner.SyncDir(dir) }
func (in *Injector) Stat(name string) (Info, error)    { return in.inner.Stat(name) }
func (in *Injector) List(dir string) ([]string, error) { return in.inner.List(dir) }

var _ FS = (*Injector)(nil)
