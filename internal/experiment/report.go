package experiment

import (
	"encoding/json"
	"os"

	"repro/internal/filebench"
)

// Report is the machine-readable form of a benchall run: every table and
// figure number in one JSON document, so the perf trajectory can be tracked
// across revisions without scraping the human-oriented tables.
type Report struct {
	// Meta pins the report to the revision and machine that produced it.
	Meta *RunMeta `json:"meta,omitempty"`

	Scale float64 `json:"scale"`

	// MatrixPC and MatrixMobile are the Table II / Fig 8 / Fig 9 source
	// measurements, in the sweep's trace-major order.
	MatrixPC     []*Result `json:"matrix_pc,omitempty"`
	MatrixMobile []*Result `json:"matrix_mobile,omitempty"`

	Fig1   []Fig1Result        `json:"fig1,omitempty"`
	Fig2   *Fig2Result         `json:"fig2,omitempty"`
	Table3 []filebench.Result  `json:"table3,omitempty"`
	Table4 []ReliabilityResult `json:"table4,omitempty"`

	// Chaos is the fault-tolerance sweep: convergence and transport-retry
	// counters per fault profile (not a paper artifact; tracks the
	// robustness of the sync path across revisions).
	Chaos []ChaosResult `json:"chaos,omitempty"`

	// CrashStorm is the storage-fault sweep (-exp crashstorm): crash-point
	// exploration coverage per storage failure profile. Coverage counters are
	// reported for the trajectory; violations additionally fail the run.
	CrashStorm []CrashStormResult `json:"crashstorm,omitempty"`

	// Load is the real-TCP load sweep (-exp loadsweep): push throughput,
	// latency and connection cost per client count, over actual loopback
	// connections (not a paper artifact; tracks the server's concurrency
	// headroom across revisions).
	Load []LoadResult `json:"load,omitempty"`

	// CommitWindows is the journal group-commit sweep that backs the
	// server's -commit-window default.
	CommitWindows []CommitWindowResult `json:"commit_windows,omitempty"`
}

// AddMatrix records the evaluation matrix in the report.
func (rep *Report) AddMatrix(m *Matrix) {
	rep.Scale = m.Scale
	rep.MatrixPC = m.PC
	rep.MatrixMobile = m.Mobile
}

// WriteFile writes the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
