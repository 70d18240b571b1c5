package faultinject

// Network fault injection. The storage faults above corrupt state *beneath*
// the sync client; these corrupt the transport *beside* it: connection drops,
// read/write stalls, partial writes, byte corruption, and scriptable
// partitions. Faults are decided by a seeded PRNG behind one mutex, so a
// given seed yields the same fault decision sequence — with a single
// sequential client the whole schedule is deterministic, and with concurrent
// connections the decision stream still is (only its assignment to
// connections varies with interleaving).
//
// Injection sits below TLS: wrap the raw listener, then layer tls.NewListener
// on top. Injected byte corruption then surfaces at the peer as a record MAC
// failure (a broken connection) rather than silently poisoned payloads —
// exactly the integrity property the real transport relies on.

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injected fault sentinels. They surface as ordinary connection errors to
// the layers above (TLS, the wire codec), but tests can identify them with
// errors.Is.
var (
	ErrInjectedDrop    = errors.New("faultinject: injected connection drop")
	ErrInjectedPartial = errors.New("faultinject: injected partial write")
	ErrPartitioned     = errors.New("faultinject: network partitioned")
)

// NetFaultConfig parameterizes a NetPlan. All probabilities are per
// connection operation (one Read or Write call) and may be zero.
type NetFaultConfig struct {
	// Seed drives the fault schedule; the same seed replays the same
	// decision sequence.
	Seed int64
	// DropProb closes the connection mid-operation.
	DropProb float64
	// StallProb delays the operation by StallDur before letting it through.
	StallProb float64
	// StallDur is the injected stall length (default 1ms).
	StallDur time.Duration
	// CorruptProb flips one bit of the transferred bytes (silently on the
	// wire; TLS above the injection point detects it as a broken record).
	CorruptProb float64
	// PartialProb writes only a prefix of the buffer, then drops the
	// connection — the ambiguous-failure signature.
	PartialProb float64
	// PartitionProb starts a partition lasting PartitionOps operations:
	// every operation during the partition fails and its connection drops.
	PartitionProb float64
	// PartitionOps is the partition length in operations (default 20).
	PartitionOps int
}

// NetFaultStats counts injected faults.
type NetFaultStats struct {
	Drops          int64 `json:"drops"`
	Stalls         int64 `json:"stalls"`
	Corruptions    int64 `json:"corruptions"`
	PartialWrites  int64 `json:"partial_writes"`
	Partitions     int64 `json:"partitions"`
	PartitionedOps int64 `json:"partitioned_ops"`
}

// Total returns the number of injected faults of all kinds.
func (s NetFaultStats) Total() int64 {
	return s.Drops + s.Stalls + s.Corruptions + s.PartialWrites + s.PartitionedOps
}

// NetPlan is a deterministic, seeded network fault schedule shared by every
// connection it wraps. Safe for concurrent use.
type NetPlan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    NetFaultConfig
	healed bool
	// partitionLeft > 0 means the network is partitioned for that many more
	// operations.
	partitionLeft int
	stats         NetFaultStats
}

// NewNetPlan builds a plan from cfg, applying defaults.
func NewNetPlan(cfg NetFaultConfig) *NetPlan {
	if cfg.StallDur <= 0 {
		cfg.StallDur = time.Millisecond
	}
	if cfg.PartitionOps <= 0 {
		cfg.PartitionOps = 20
	}
	return &NetPlan{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Heal permanently stops all fault injection (the chaos harness calls it
// before the final drain, so every run ends with a reachable network).
func (p *NetPlan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healed = true
	p.partitionLeft = 0
}

// PartitionFor scripts a partition: the next n connection operations fail
// and drop their connections, then the network heals on its own.
func (p *NetPlan) PartitionFor(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.healed || n <= 0 {
		return
	}
	p.partitionLeft = n
	p.stats.Partitions++
}

// Partitioned reports whether a partition is currently in force.
func (p *NetPlan) Partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitionLeft > 0
}

// Stats returns a snapshot of the injected-fault counters.
func (p *NetPlan) Stats() NetFaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// verdict is one fault decision.
type verdict int

const (
	vNone verdict = iota
	vDrop
	vStall
	vCorrupt
	vPartial
	vPartition
)

// decide rolls the next fault decision. write selects the write-only faults.
func (p *NetPlan) decide(write bool) (verdict, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.healed {
		return vNone, 0
	}
	if p.partitionLeft > 0 {
		p.partitionLeft--
		p.stats.PartitionedOps++
		return vPartition, 0
	}
	r := p.rng.Float64()
	switch {
	case r < p.cfg.DropProb:
		p.stats.Drops++
		return vDrop, 0
	case r < p.cfg.DropProb+p.cfg.StallProb:
		p.stats.Stalls++
		return vStall, p.cfg.StallDur
	case r < p.cfg.DropProb+p.cfg.StallProb+p.cfg.CorruptProb:
		p.stats.Corruptions++
		return vCorrupt, 0
	case r < p.cfg.DropProb+p.cfg.StallProb+p.cfg.CorruptProb+p.cfg.PartialProb:
		// The partial window only applies to writes; on a read it must be a
		// no-op rather than falling through into the partition case below.
		if !write {
			return vNone, 0
		}
		p.stats.PartialWrites++
		return vPartial, 0
	case r < p.cfg.DropProb+p.cfg.StallProb+p.cfg.CorruptProb+p.cfg.PartialProb+p.cfg.PartitionProb:
		p.partitionLeft = p.cfg.PartitionOps
		p.stats.Partitions++
		p.stats.PartitionedOps++
		return vPartition, 0
	}
	return vNone, 0
}

// flipBit flips the low bit of a PRNG-chosen byte.
func (p *NetPlan) flipBit(b []byte) {
	if len(b) == 0 {
		return
	}
	p.mu.Lock()
	i := p.rng.Intn(len(b))
	p.mu.Unlock()
	b[i] ^= 1
}

// Conn wraps c with this plan's fault schedule.
func (p *NetPlan) Conn(c net.Conn) net.Conn { return &faultyConn{Conn: c, plan: p} }

// Listener wraps lis so every accepted connection carries this plan's fault
// schedule. Layer tls.NewListener on top to get corruption detection.
func (p *NetPlan) Listener(lis net.Listener) net.Listener {
	return &faultyListener{Listener: lis, plan: p}
}

// faultyListener injects faults into accepted connections.
type faultyListener struct {
	net.Listener
	plan *NetPlan
}

func (l *faultyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.plan.Conn(c), nil
}

// faultyConn injects faults into one connection. Both directions of the
// socket pass through it, so wrapping the server side faults the full path.
type faultyConn struct {
	net.Conn
	plan *NetPlan
}

func (c *faultyConn) Read(b []byte) (int, error) {
	switch v, stall := c.plan.decide(false); v {
	case vDrop:
		c.Conn.Close()
		return 0, ErrInjectedDrop
	case vPartition:
		c.Conn.Close()
		return 0, ErrPartitioned
	case vStall:
		time.Sleep(stall)
	case vCorrupt:
		n, err := c.Conn.Read(b)
		if n > 0 {
			c.plan.flipBit(b[:n])
		}
		return n, err
	}
	return c.Conn.Read(b)
}

func (c *faultyConn) Write(b []byte) (int, error) {
	switch v, stall := c.plan.decide(true); v {
	case vDrop:
		c.Conn.Close()
		return 0, ErrInjectedDrop
	case vPartition:
		c.Conn.Close()
		return 0, ErrPartitioned
	case vStall:
		time.Sleep(stall)
	case vCorrupt:
		// Corrupt a copy: the caller's buffer must stay untouched.
		dup := append([]byte(nil), b...)
		c.plan.flipBit(dup)
		return c.Conn.Write(dup)
	case vPartial:
		n, err := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		if err == nil {
			err = ErrInjectedPartial
		}
		return n, err
	}
	return c.Conn.Write(b)
}
