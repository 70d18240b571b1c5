// Package loadgen drives thousands of cheap simulated sync clients against
// a real TCP server.Server — the measurement half of the 10k-client scaling
// work. Each client is one goroutine holding one TCP connection: it
// registers into a sharing group, pushes keyed full-file batches over its
// own path universe, reacts to PushReply.Throttled backpressure by draining
// its poll queue, and finally verifies its files round-tripped (the
// convergence oracle). The server side runs the production stack: striped
// file state, the goroutine-per-connection transport and (optionally) the
// push journal, so the harness measures exactly what cmd/deltacfs-server
// ships.
//
// A loopback connection costs two descriptors in one process — both ends —
// so a 10k-client run cannot fit a typical 20k fd limit in-process. When
// the budget is tight and the caller provides WorkerCmd, the client herd
// moves to worker subprocesses (worker.go): the server and its descriptors
// stay here, each worker holds only its clients' ends, and the goroutine and
// stack samples at connection peak become pure server-side numbers.
//
// The interesting numbers are throughput (ops/sec), client-observed push
// latency (p50/p99), journal fsyncs (durability amplification), throttle
// and outbox-drop counts (backpressure behavior), and what the connections
// cost the server in goroutines and stack memory.
package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Config parameterizes one load run.
type Config struct {
	// Clients is the number of concurrent TCP clients.
	Clients int
	// GroupSize is how many clients share each sharing group (1 = isolated
	// tenants, no forwarding; >1 exercises forwarding and backpressure).
	GroupSize int
	// OpsPerClient is how many pushes each client performs (min 2).
	OpsPerClient int
	// PayloadBytes sizes each pushed file payload (default 256).
	PayloadBytes int
	// Shards configures the server's file-state striping (0 = default).
	Shards int
	// JournalDir, when non-empty, wires a push journal rooted there.
	JournalDir string
	// CommitWindow is the journal's group-commit window (with JournalDir).
	CommitWindow time.Duration
	// DialParallel bounds concurrent connection establishment (default 256).
	DialParallel int
	// PollEvery drains a client's forward queue every N pushes when its
	// group shares (default 16).
	PollEvery int
	// WorkerCmd, when non-empty, is the argv prefix that re-invokes this
	// program as a load worker (WorkerMain). Required for client counts
	// whose descriptors cannot fit in-process.
	WorkerCmd []string
}

// Result is one load run's measurements.
type Result struct {
	Clients      int `json:"clients"`
	GroupSize    int `json:"group_size"`
	OpsPerClient int `json:"ops_per_client"`
	Ops          int `json:"ops"`

	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`

	// Throttles counts pushes whose reply carried the backpressure signal.
	Throttles int64 `json:"throttles"`
	// OutboxDrops counts forwarded batches the server evicted.
	OutboxDrops int64 `json:"outbox_drops"`

	// Fsyncs and SyncCoalesced are the journal's durability counters (zero
	// without a journal).
	Fsyncs        int64 `json:"fsyncs"`
	SyncCoalesced int64 `json:"sync_coalesced"`

	// PeakConns is the highest concurrent TCP connection count the server
	// observed.
	PeakConns int64 `json:"peak_conns"`
	Requests  int64 `json:"requests"`

	// GoroutinesAtPeak samples runtime.NumGoroutine with every client
	// connected and idle, before any op goroutine starts — so it measures
	// what N connections cost the server in goroutines (with worker
	// subprocesses it is a pure server-side number). Each connection is
	// one serveConn goroutine, so this grows as N.
	GoroutinesAtPeak int `json:"goroutines_at_peak"`
	// StackInuseAtPeak is runtime.MemStats.StackInuse, in bytes, sampled at
	// the same moment: the stack memory those goroutines hold.
	StackInuseAtPeak uint64 `json:"stack_inuse_at_peak"`
	// WorkerProcs is how many client subprocesses drove the load (0 =
	// in-process).
	WorkerProcs int `json:"worker_procs"`

	Errors           int  `json:"errors"`
	Mismatches       int  `json:"mismatches"`
	DuplicateApplies int  `json:"duplicate_applies"`
	Converged        bool `json:"converged"`
}

// fdSlack is the descriptor headroom reserved for everything that is not a
// load connection (listener, journal, runtime, stdio).
const fdSlack = 512

// forceSplit makes Run take the worker-subprocess path regardless of the
// descriptor budget (test hook; real runs split only when they must).
var forceSplit = false

// Run executes one load run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: need at least 1 client")
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 1
	}
	if cfg.OpsPerClient < 2 {
		cfg.OpsPerClient = 2
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 256
	}
	if cfg.DialParallel <= 0 {
		cfg.DialParallel = 256
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 16
	}

	// Fit the descriptor budget: in-process needs both ends of every
	// connection; with workers this process only holds the server ends.
	limit, err := fdLimit(uint64(2*cfg.Clients + fdSlack))
	if err != nil {
		return nil, fmt.Errorf("loadgen: fd limit: %w", err)
	}
	inProc := !forceSplit && uint64(2*cfg.Clients+fdSlack) <= limit
	if !inProc {
		if uint64(cfg.Clients+fdSlack) > limit {
			return nil, fmt.Errorf("loadgen: %d clients exceed the %d fd limit even split across processes", cfg.Clients, limit)
		}
		if len(cfg.WorkerCmd) == 0 {
			return nil, fmt.Errorf("loadgen: %d clients need worker subprocesses (2×%d+%d fds > limit %d) but no WorkerCmd is configured",
				cfg.Clients, cfg.Clients, fdSlack, limit)
		}
	}

	// Level the field between back-to-back runs in one process: collect the
	// previous run's garbage now instead of during this run's timed window.
	runtime.GC()

	srv := server.NewWithOptions(nil, server.Options{Shards: cfg.Shards})
	var journal *server.Journal
	if cfg.JournalDir != "" {
		j, err := server.OpenJournal(cfg.JournalDir, cfg.CommitWindow)
		if err != nil {
			return nil, err
		}
		// Releases the journal on the early-error returns; the success path
		// closes it explicitly below, after which this Close is a no-op.
		defer j.Close()
		srv.SetJournal(j)
		journal = j
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	stats := &wire.ServeStats{}
	go wire.ServeWith(lis, srv, wire.ServeConfig{Stats: stats})

	res := &Result{Clients: cfg.Clients, GroupSize: cfg.GroupSize, OpsPerClient: cfg.OpsPerClient,
		Ops: cfg.Clients * cfg.OpsPerClient}

	wc := workerConfig{
		Addr:         lis.Addr().String(),
		Clients:      cfg.Clients,
		GroupSize:    cfg.GroupSize,
		OpsPerClient: cfg.OpsPerClient,
		PayloadBytes: cfg.PayloadBytes,
		DialParallel: cfg.DialParallel,
		PollEvery:    cfg.PollEvery,
	}

	// Throughput is computed over the ops phase only — each herd times its
	// own window from release to its last client's final push, so neither
	// the convergence fetch-back nor worker IPC pollutes the number.
	var wr workerResult
	if inProc {
		herd, err := stageClients(wc)
		if err != nil {
			return nil, err
		}
		res.GoroutinesAtPeak, res.StackInuseAtPeak = sampleAtPeak()
		wr = herd.run()
	} else {
		wr, res.GoroutinesAtPeak, res.StackInuseAtPeak, err = runViaWorkers(cfg, wc)
		if err != nil {
			return nil, err
		}
		res.WorkerProcs = workerProcs(cfg, limit)
	}

	elapsed := time.Duration(wr.OpsElapsedMicros) * time.Microsecond
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	lats := make([]time.Duration, len(wr.LatsMicros))
	for i, m := range wr.LatsMicros {
		lats[i] = time.Duration(m * float64(time.Microsecond))
	}
	res.P50Micros = percentileMicros(lats, 0.50)
	res.P99Micros = percentileMicros(lats, 0.99)
	res.Throttles = wr.Throttles
	res.Errors = int(wr.Errors)
	res.Mismatches = int(wr.Mismatches)
	ob := srv.OutboxStats()
	res.OutboxDrops = ob.Drops
	if journal != nil {
		// Every client has its replies, so no push is in flight. Closing
		// flushes the pending commit window before the counters are read,
		// and a failed final flush is a failed run.
		if err := journal.Close(); err != nil {
			return nil, fmt.Errorf("loadgen: close journal: %w", err)
		}
		res.Fsyncs = journal.Fsyncs()
		res.SyncCoalesced = journal.SyncCoalesced()
	}
	res.PeakConns = stats.PeakConns()
	res.Requests = stats.Requests()
	res.DuplicateApplies = srv.DuplicateApplies()
	res.Converged = res.Mismatches == 0 && res.Errors == 0 && res.DuplicateApplies == 0
	return res, nil
}

// workerProcs is how many subprocesses a split run uses: as few as fit the
// per-process descriptor budget.
func workerProcs(cfg Config, limit uint64) int {
	per := int(limit) - fdSlack
	n := (cfg.Clients + per - 1) / per
	if n < 1 {
		n = 1
	}
	return n
}

// runViaWorkers drives the client herd from subprocesses: each worker dials
// its slice of clients, reports ready, and starts pushing when every worker
// is staged — the same barrier the in-process path uses. The merged result's
// OpsElapsedMicros is the slowest worker's own ops window (workers release
// within the time it takes to write the go tokens, well under a millisecond).
func runViaWorkers(cfg Config, wc workerConfig) (workerResult, int, uint64, error) {
	limit, _ := fdLimit(0)
	procs := workerProcs(cfg, limit)
	per := (cfg.Clients + procs - 1) / procs

	type workerProc struct {
		cmd *exec.Cmd
		in  *json.Encoder
		out *bufio.Reader
	}
	var workers []*workerProc
	kill := func() {
		for _, w := range workers {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	}
	base := 0
	for p := 0; p < procs && base < cfg.Clients; p++ {
		n := per
		if base+n > cfg.Clients {
			n = cfg.Clients - base
		}
		sub := wc
		sub.BaseIndex = base
		sub.Clients = n
		base += n
		cmd := exec.Command(cfg.WorkerCmd[0], cfg.WorkerCmd[1:]...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			kill()
			return workerResult{}, 0, 0, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			kill()
			return workerResult{}, 0, 0, err
		}
		cmd.Stderr = nil
		if err := cmd.Start(); err != nil {
			kill()
			return workerResult{}, 0, 0, fmt.Errorf("loadgen: start worker: %w", err)
		}
		w := &workerProc{cmd: cmd, in: json.NewEncoder(stdin), out: bufio.NewReader(stdout)}
		workers = append(workers, w)
		if err := w.in.Encode(&sub); err != nil {
			kill()
			return workerResult{}, 0, 0, fmt.Errorf("loadgen: worker config: %w", err)
		}
	}

	// Barrier 1: every worker has all its clients connected and staged.
	for _, w := range workers {
		line, err := w.out.ReadString('\n')
		if err != nil || line != workerReady+"\n" {
			kill()
			return workerResult{}, 0, 0, fmt.Errorf("loadgen: worker failed while staging: %q, %v", line, err)
		}
	}
	goroutines, stack := sampleAtPeak()

	// Barrier 2: release the herd everywhere at once.
	for _, w := range workers {
		if err := w.in.Encode(workerGo); err != nil {
			kill()
			return workerResult{}, 0, 0, err
		}
	}
	var total workerResult
	for _, w := range workers {
		var wr workerResult
		if err := json.NewDecoder(w.out).Decode(&wr); err != nil {
			kill()
			return workerResult{}, 0, 0, fmt.Errorf("loadgen: worker result: %w", err)
		}
		total.LatsMicros = append(total.LatsMicros, wr.LatsMicros...)
		total.Throttles += wr.Throttles
		total.Errors += wr.Errors
		total.Mismatches += wr.Mismatches
		if wr.OpsElapsedMicros > total.OpsElapsedMicros {
			total.OpsElapsedMicros = wr.OpsElapsedMicros
		}
	}
	for _, w := range workers {
		w.cmd.Wait()
	}
	return total, goroutines, stack, nil
}

// sampleAtPeak reads this process's goroutine count and stack memory at the
// staging barrier, with every connection open and idle.
func sampleAtPeak() (goroutines int, stackInuse uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.StackInuse
}

func percentileMicros(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p * float64(len(lats)-1))
	return float64(lats[idx]) / float64(time.Microsecond)
}
