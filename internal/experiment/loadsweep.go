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
	// Dirty is always written, so a clean report says so explicitly.
	Dirty bool `json:"dirty"`
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

// LoadResult is one rung of the real-TCP load sweep: a client herd driven
// against the production server stack over loopback TCP.
type LoadResult struct {
	Clients int             `json:"clients"`
	Result  *loadgen.Result `json:"result"`
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
}

// LoadSweep measures real-TCP push throughput and latency for each client
// count.
func LoadSweep(cfg LoadSweepConfig) ([]LoadResult, error) {
	if cfg.TotalOps <= 0 {
		cfg.TotalOps = 40000
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 4
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
		res, err := loadgen.Run(loadgen.Config{
			Clients:      n,
			GroupSize:    cfg.GroupSize,
			OpsPerClient: ops,
			WorkerCmd:    cfg.WorkerCmd,
		})
		if err != nil {
			return nil, fmt.Errorf("loadsweep: %d clients: %w", n, err)
		}
		out = append(out, LoadResult{Clients: n, Result: res})
	}
	return out, nil
}

// CheckLoad returns an error when any rung failed to converge or saw client
// errors — the only failure conditions a load run enforces (throughput
// numbers are reported, never asserted).
func CheckLoad(rs []LoadResult) error {
	for _, r := range rs {
		if res := r.Result; res.Errors > 0 || !res.Converged {
			return fmt.Errorf("loadsweep: %d clients: errors=%d mismatches=%d duplicate_applies=%d converged=%v",
				r.Clients, res.Errors, res.Mismatches, res.DuplicateApplies, res.Converged)
		}
	}
	return nil
}

// PrintLoad renders the load sweep as a table.
func PrintLoad(w io.Writer, rs []LoadResult) {
	fmt.Fprintln(w, "Real-TCP load sweep")
	fmt.Fprintln(w, "(wall-clock over loopback TCP; conns = peak concurrent connections; goroutines and stack MB sampled with every client connected)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "clients\tconns\tgoroutines\tstack MB\tops/s\tp50 us\tp99 us\tthrottles")
	for _, r := range rs {
		res := r.Result
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.0f\t%.1f\t%.1f\t%d\n",
			r.Clients, res.PeakConns, res.GoroutinesAtPeak, float64(res.StackInuseAtPeak)/(1<<20),
			res.OpsPerSec, res.P50Micros, res.P99Micros, res.Throttles)
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
