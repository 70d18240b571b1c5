package server

import "sync"

// The applied-op log records the order in which content-bearing nodes were
// committed — the input of the upload-ordering experiment (Table IV) and of
// the server's durable snapshot. It is one slice behind one mutex.
//
// The committing transaction appends while it still holds its batch's shard
// locks, so two batches touching the same path append in their commit
// order: the log is a linearization of the per-path commit orders, and one
// append's ops stay contiguous.
//
// One mutex is enough: striping this log (per-stripe locks under a global
// sequence counter) never beat it by more than ~1.08× over real TCP at
// 64–2048 clients, and the log's lock holds under 4% of all mutex delay
// there (DESIGN.md §13).
//
// Lock ordering: appliedLog.mu is a leaf (level 6 in shard.go's table).

// appliedLog is the applied-op log.
type appliedLog struct {
	mu  sync.Mutex
	ops []AppliedOp
}

// append adds one transaction's ops to the log. The caller is the
// committing transaction, still holding its batch's shard locks, which is
// what makes same-path log order equal commit order.
func (l *appliedLog) append(ops []AppliedOp) {
	if len(ops) == 0 {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, ops...)
	l.mu.Unlock()
}

// snapshot returns a copy of the log in commit order.
func (l *appliedLog) snapshot() []AppliedOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AppliedOp(nil), l.ops...)
}

// replace resets the log to exactly ops, in order (snapshot restore).
func (l *appliedLog) replace(ops []AppliedOp) {
	l.mu.Lock()
	l.ops = ops
	l.mu.Unlock()
}
