package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/version"
	"repro/internal/wire"
)

// workerConfig is one client herd's share of a load run. In-process runs
// use it directly; split runs serialize it to each worker subprocess over
// stdin.
type workerConfig struct {
	Addr string
	// BaseIndex is the global index of this herd's first client; client
	// identity (paths, sharing group) is derived from the global index so a
	// split run produces the same workload as an in-process one.
	BaseIndex    int
	Clients      int
	GroupSize    int
	OpsPerClient int
	PayloadBytes int
	DialParallel int
	PollEvery    int
}

// workerResult is one herd's share of the measurements.
type workerResult struct {
	LatsMicros []float64
	Throttles  int64
	Errors     int64
	Mismatches int64
	// OpsElapsedMicros is the herd's own ops-phase wall time: from the go
	// signal to its last client finishing its pushes. The convergence
	// fetch-back phase runs after the clock stops, so verification cost
	// never pollutes the throughput number.
	OpsElapsedMicros int64
}

// workerReady is the line a staged worker prints; workerGo is the token
// that releases it.
const (
	workerReady = "LOADGEN_READY"
	workerGo    = "LOADGEN_GO"
)

// WorkerMain is the entry point for a load worker subprocess: it reads a
// JSON herd config from stdin, connects every client, reports readiness on
// stdout, waits for the go token, runs the herd, and writes a JSON result.
// Programs that call loadgen with WorkerCmd must route that argv back here.
func WorkerMain(stdin io.Reader, stdout io.Writer) error {
	dec := json.NewDecoder(stdin)
	var wc workerConfig
	if err := dec.Decode(&wc); err != nil {
		return fmt.Errorf("loadgen worker: config: %w", err)
	}
	// Best-effort: one descriptor per client plus slack.
	if _, err := fdLimit(uint64(wc.Clients + fdSlack)); err != nil {
		return fmt.Errorf("loadgen worker: fd limit: %w", err)
	}
	h, err := stageClients(wc)
	if err != nil {
		return fmt.Errorf("loadgen worker: stage: %w", err)
	}
	if _, err := fmt.Fprintln(stdout, workerReady); err != nil {
		return err
	}
	var tok string
	if err := dec.Decode(&tok); err != nil || tok != workerGo {
		return fmt.Errorf("loadgen worker: expected go token, got %q (%v)", tok, err)
	}
	wr := h.run()
	return json.NewEncoder(stdout).Encode(&wr)
}

// herd is a set of staged (connected, idle) clients ready to run.
type herd struct {
	wc    workerConfig
	conns []*wire.NetClient
	// states carries each client's final versions/content from the ops
	// phase into the verification phase.
	states []clientState
}

// clientState is what a client remembers about its own writes: the last
// version and content pushed per path, checked by fetch-back after the
// timed window closes.
type clientState struct {
	paths []string
	vers  []version.ID
	last  [][]byte
}

// groupOf maps a global client index to its 1-based sharing group. Group
// IDs start at 1 so the harness never lands in the server's default group
// 0, which any untagged client would share.
func (wc workerConfig) groupOf(global int) uint32 {
	return uint32(global/wc.GroupSize) + 1
}

// stageClients connects every client in the herd (dial concurrency bounded
// by DialParallel) and registers each into its sharing group. The herd is
// returned fully connected but idle, so the caller can sample
// connection-peak state before any load starts.
func stageClients(wc workerConfig) (*herd, error) {
	h := &herd{
		wc:     wc,
		conns:  make([]*wire.NetClient, wc.Clients),
		states: make([]clientState, wc.Clients),
	}
	sem := make(chan struct{}, wc.DialParallel)
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for i := 0; i < wc.Clients; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			nc, err := wire.DialWith(wc.Addr, wire.DialOpts{
				Group:     wc.groupOf(wc.BaseIndex + i),
				OpTimeout: 2 * time.Minute,
				HardClose: true,
			})
			if err != nil {
				err = fmt.Errorf("client %d: %w", wc.BaseIndex+i, err)
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			h.conns[i] = nc
		}(i)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		for _, nc := range h.conns {
			if nc != nil {
				nc.Close()
			}
		}
		return nil, *p
	}
	return h, nil
}

// pathsPerClient is each client's private path universe: small enough that
// repeated ops exercise version chains, large enough to spread across
// shards.
const pathsPerClient = 2

// run executes the herd in two waves — the timed ops phase, then the
// untimed convergence verification — and closes every connection before
// returning.
func (h *herd) run() workerResult {
	results := make([]workerResult, len(h.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range h.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = h.runOps(i)
		}(i)
	}
	wg.Wait()
	opsElapsed := time.Since(start)
	for i := range h.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer h.conns[i].Close()
			if results[i].Errors == 0 {
				h.verifyClient(i, &results[i])
			}
		}(i)
	}
	wg.Wait()
	var total workerResult
	for _, r := range results {
		total.LatsMicros = append(total.LatsMicros, r.LatsMicros...)
		total.Throttles += r.Throttles
		total.Errors += r.Errors
		total.Mismatches += r.Mismatches
	}
	total.OpsElapsedMicros = opsElapsed.Microseconds()
	return total
}

// runOps is one client's timed life: OpsPerClient keyed full-file pushes
// over its private paths with throttle-aware polling. Final per-path
// versions/content land in h.states[i] for the verification phase.
func (h *herd) runOps(i int) workerResult {
	wc := h.wc
	nc := h.conns[i]
	global := wc.BaseIndex + i
	id, _ := nc.Register()
	ctr := version.NewCounter(id)

	rnd := rand.New(rand.NewSource(int64(global)*7919 + 1))
	payloads := make([][]byte, 4)
	for p := range payloads {
		payloads[p] = make([]byte, wc.PayloadBytes)
		rnd.Read(payloads[p])
	}

	var wr workerResult
	wr.LatsMicros = make([]float64, 0, wc.OpsPerClient)
	st := &h.states[i]
	st.paths = make([]string, pathsPerClient)
	for p := range st.paths {
		st.paths[p] = fmt.Sprintf("t%d/c%d/f%d", wc.groupOf(global), global, p)
	}
	st.vers = make([]version.ID, pathsPerClient)
	st.last = make([][]byte, pathsPerClient)

	for op := 0; op < wc.OpsPerClient; op++ {
		p := op % pathsPerClient
		n := &wire.Node{
			Kind: wire.NFull,
			Path: st.paths[p],
			Base: st.vers[p],
			Ver:  ctr.Next(),
			Full: payloads[op%len(payloads)],
		}
		b := &wire.Batch{Seq: uint64(op + 1), Nodes: []*wire.Node{n}}
		t0 := time.Now()
		reply, err := nc.Push(b)
		wr.LatsMicros = append(wr.LatsMicros, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			wr.Errors++
			return wr
		}
		for _, status := range reply.Statuses {
			if status != wire.StatusOK {
				wr.Errors++
			}
		}
		st.vers[p] = n.Ver
		st.last[p] = n.Full
		if reply.Throttled {
			// Backpressure: a sharing peer's outbox is saturated. Drain our
			// own queue (we may be the slow one) and yield briefly.
			wr.Throttles++
			if _, err := nc.Poll(); err != nil {
				wr.Errors++
				return wr
			}
			time.Sleep(200 * time.Microsecond)
		} else if wc.GroupSize > 1 && op%wc.PollEvery == wc.PollEvery-1 {
			if _, err := nc.Poll(); err != nil {
				wr.Errors++
				return wr
			}
		}
	}
	return wr
}

// verifyClient is the untimed convergence check: every path the client
// wrote must read back with the content and version of its last push.
func (h *herd) verifyClient(i int, wr *workerResult) {
	nc := h.conns[i]
	st := &h.states[i]
	for p, path := range st.paths {
		if st.last[p] == nil {
			continue
		}
		fr, err := nc.Fetch(path)
		if err != nil {
			wr.Errors++
			return
		}
		if !fr.Exists || fr.Ver != st.vers[p] || string(fr.Content) != string(st.last[p]) {
			wr.Mismatches++
		}
	}
}
