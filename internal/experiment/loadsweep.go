package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/loadgen"
)

// RunMeta pins a benchmark report to the machine and revision that produced
// it, so a committed BENCH_*.json trajectory stays comparable across
// revisions: a throughput change only means something when GOMAXPROCS and
// the commit hash say what actually ran.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision baked into the binary ("unknown" when the
	// build carries no VCS stamp, e.g. `go test` binaries).
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// NewRunMeta captures the current process's run metadata.
func NewRunMeta() *RunMeta {
	m := &RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	// `go run` and `go test` binaries carry no VCS stamp, which would let a
	// dirty tree masquerade as clean. Fall back to asking git directly; if
	// git is unavailable or this is not a checkout, stay conservative and
	// report dirty so an unattributable report is never published as clean.
	if m.Commit == "unknown" {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(rev))
		}
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(bytes.TrimSpace(st)) > 0
		} else {
			m.Dirty = true
		}
	}
	return m
}

// LoadResult is one rung of the real-TCP load sweep: the same client herd
// driven against the striped applied-log server and against the 1-stripe
// configuration that serializes applied-op commits the way the old global
// appliedMu did. Everything else — TCP, the transport, sharded file state —
// is identical, so the speedup isolates the applied-log change.
type LoadResult struct {
	Clients int `json:"clients"`

	Striped *loadgen.Result `json:"striped"`
	Global  *loadgen.Result `json:"global"`

	// Speedup is striped over 1-stripe throughput.
	Speedup float64 `json:"speedup"`
}

// LoadSweepConfig parameterizes LoadSweep.
type LoadSweepConfig struct {
	// ClientCounts are the sweep rungs (e.g. 64, 512, 2048, 10000).
	ClientCounts []int
	// TotalOps targets this many pushes per rung, split evenly across
	// clients (min 2 per client), so every rung measures comparable work.
	TotalOps int
	// GroupSize is how many clients share each sync group.
	GroupSize int
	// WorkerCmd re-invokes this program as a load worker subprocess; needed
	// for rungs whose descriptors cannot fit in one process.
	WorkerCmd []string
	// Repeat runs each configuration this many times (alternating striped
	// and 1-stripe) and keeps each configuration's best run, damping
	// scheduler and neighbor noise (default 2).
	Repeat int
}

// LoadSweep measures real-TCP push throughput and latency for each client
// count, striped applied log versus the 1-stripe (global commit lock)
// baseline.
func LoadSweep(cfg LoadSweepConfig) ([]LoadResult, error) {
	if cfg.TotalOps <= 0 {
		cfg.TotalOps = 40000
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 4
	}
	if cfg.Repeat <= 0 {
		cfg.Repeat = 2
	}
	var out []LoadResult
	for _, n := range cfg.ClientCounts {
		if n <= 0 {
			return nil, fmt.Errorf("loadsweep: invalid client count %d", n)
		}
		ops := cfg.TotalOps / n
		if ops < 2 {
			ops = 2
		}
		base := loadgen.Config{
			Clients:      n,
			GroupSize:    cfg.GroupSize,
			OpsPerClient: ops,
			WorkerCmd:    cfg.WorkerCmd,
		}
		row := LoadResult{Clients: n}

		// Interleave striped and 1-stripe runs — alternating which goes
		// first — and keep each side's best, so a noisy neighbor, a GC
		// pause, or any run-first/run-second asymmetry hits both sides
		// evenly instead of whichever configuration happened to be running.
		runStriped := func() error {
			res, err := loadgen.Run(base)
			if err != nil {
				return fmt.Errorf("loadsweep: %d clients (striped): %w", n, err)
			}
			if row.Striped == nil || res.OpsPerSec > row.Striped.OpsPerSec {
				row.Striped = res
			}
			return nil
		}
		runGlobal := func() error {
			global := base
			global.AppliedStripes = 1
			res, err := loadgen.Run(global)
			if err != nil {
				return fmt.Errorf("loadsweep: %d clients (1-stripe): %w", n, err)
			}
			if row.Global == nil || res.OpsPerSec > row.Global.OpsPerSec {
				row.Global = res
			}
			return nil
		}
		for rep := 0; rep < cfg.Repeat; rep++ {
			order := []func() error{runStriped, runGlobal}
			if rep%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, f := range order {
				if err := f(); err != nil {
					return nil, err
				}
			}
		}

		if row.Global.OpsPerSec > 0 {
			row.Speedup = row.Striped.OpsPerSec / row.Global.OpsPerSec
		}
		out = append(out, row)
	}
	return out, nil
}

// CheckLoad returns an error when any rung failed to converge or saw client
// errors — the only failure conditions a load run enforces (throughput
// numbers are reported, never asserted).
func CheckLoad(rs []LoadResult) error {
	for _, r := range rs {
		for _, res := range []*loadgen.Result{r.Striped, r.Global} {
			if res.Errors > 0 || !res.Converged {
				return fmt.Errorf("loadsweep: %d clients: errors=%d mismatches=%d duplicate_applies=%d converged=%v",
					r.Clients, res.Errors, res.Mismatches, res.DuplicateApplies, res.Converged)
			}
		}
	}
	return nil
}

// PrintLoad renders the load sweep as a table.
func PrintLoad(w io.Writer, rs []LoadResult) {
	fmt.Fprintln(w, "Real-TCP load sweep: striped applied log vs 1-stripe (global commit lock) baseline")
	fmt.Fprintln(w, "(wall-clock over loopback TCP; conns = peak concurrent connections; goroutines and stack MB sampled with every client connected)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "clients\tconns\tgoroutines\tstack MB\tstriped ops/s\tp50 us\tp99 us\tthrottles\t1-stripe ops/s\tp99 us\tspeedup")
	for _, r := range rs {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.0f\t%.1f\t%.1f\t%d\t%.0f\t%.1f\t%.2fx\n",
			r.Clients, r.Striped.PeakConns, r.Striped.GoroutinesAtPeak, float64(r.Striped.StackInuseAtPeak)/(1<<20),
			r.Striped.OpsPerSec, r.Striped.P50Micros, r.Striped.P99Micros, r.Striped.Throttles,
			r.Global.OpsPerSec, r.Global.P99Micros, r.Speedup)
	}
	tw.Flush()
}

// CommitWindowResult is one rung of the journal group-commit sweep: the
// same write-heavy herd with the push journal enabled, varying only the
// commit window. Window 0 fsyncs every push (full durability, fsync-bound);
// wider windows coalesce more pushes per fsync at the cost of a larger
// post-crash ack-loss window. The sweep is what picks the server's default.
type CommitWindowResult struct {
	WindowMicros int64           `json:"window_micros"`
	Result       *loadgen.Result `json:"result"`
}

// CommitWindowSweep measures journaled push throughput across commit
// windows with `clients` concurrent TCP clients.
func CommitWindowSweep(windows []time.Duration, clients, totalOps int, workerCmd []string) ([]CommitWindowResult, error) {
	if clients <= 0 {
		clients = 64
	}
	if totalOps <= 0 {
		totalOps = 6400
	}
	ops := totalOps / clients
	if ops < 2 {
		ops = 2
	}
	var out []CommitWindowResult
	for _, w := range windows {
		dir, err := os.MkdirTemp("", "loadsweep-journal-*")
		if err != nil {
			return nil, err
		}
		res, err := loadgen.Run(loadgen.Config{
			Clients:      clients,
			GroupSize:    1,
			OpsPerClient: ops,
			JournalDir:   dir,
			CommitWindow: w,
			WorkerCmd:    workerCmd,
		})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("commit-window %v: %w", w, err)
		}
		if res.Errors > 0 || !res.Converged {
			return nil, fmt.Errorf("commit-window %v: errors=%d converged=%v", w, res.Errors, res.Converged)
		}
		out = append(out, CommitWindowResult{WindowMicros: w.Microseconds(), Result: res})
	}
	return out, nil
}

// PrintCommitWindows renders the journal commit-window sweep as a table.
func PrintCommitWindows(w io.Writer, rs []CommitWindowResult) {
	fmt.Fprintln(w, "Journal group-commit window sweep (write-heavy, journal on, fsyncs counted)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "window\tops/s\tp50 us\tp99 us\tfsyncs\tcoalesced\tfsyncs/op")
	for _, r := range rs {
		win := time.Duration(r.WindowMicros) * time.Microsecond
		label := win.String()
		if win == 0 {
			label = "0 (per-push)"
		}
		perOp := float64(r.Result.Fsyncs) / float64(r.Result.Ops)
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.1f\t%d\t%d\t%.3f\n",
			label, r.Result.OpsPerSec, r.Result.P50Micros, r.Result.P99Micros,
			r.Result.Fsyncs, r.Result.SyncCoalesced, perOp)
	}
	tw.Flush()
}
