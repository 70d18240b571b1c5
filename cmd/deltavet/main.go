// Command deltavet is the project's multichecker: it runs the ten
// invariant analyzers (lockorder, blockunderlock, detreplay, errsync,
// crashsafe, wiretaint, atomicsafe, poolsafe, leakcheck, racecheck) over
// the packages named on the command line and exits non-zero if any
// unsuppressed finding remains. CI runs it alongside `go vet` and the
// full-module race detector:
//
//	go run ./cmd/deltavet ./...
//
// All named packages are loaded into ONE analysis.Program, so the
// interprocedural analyzers see the whole-tree call graph — a finding in
// package A may exist only because of a caller in package B. Packages are
// analyzed concurrently by a GOMAXPROCS-sized worker pool sharing that
// Program; findings are merged and sorted by position, so the output is
// deterministic regardless of worker scheduling.
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error, 3 the
// packages failed to load or an analyzer crashed — so CI can tell "the code
// is dirty" from "the checker never ran".
//
// With -json the findings are emitted as a JSON array on stdout (CI uploads
// this as an artifact); on a load failure -json still emits valid JSON, an
// object with a single "error" key. With -sarif the findings are emitted as
// a SARIF 2.1.0 log for code-scanning upload. The default text form
// `file:line:col: analyzer: message` is what the GitHub Actions problem
// matcher annotates. -since <git-ref> keeps only findings in files changed
// since the merge base of HEAD and that ref — the differential mode CI uses
// to annotate new findings on a PR branch without re-litigating the whole
// tree or blaming the branch for changes that landed on main after it
// forked.
//
// Suppression: an inline `//deltavet:allow <analyzer> <reason>` comment on
// the finding's line (or the line above) silences that analyzer there; the
// deltavet.allow file at the module root records standing per-function
// exemptions (`<analyzer> <pkgpath> <Func|Type.Method> <reason>`). Both
// require a reason — the point is a reviewable inventory of every place the
// invariants are intentionally bent, not a mute button. An allow entry whose
// target function no longer exists is itself reported as an `allowstale`
// finding: suppressions must not outlive the code they excuse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicsafe"
	"repro/internal/analysis/blockunderlock"
	"repro/internal/analysis/crashsafe"
	"repro/internal/analysis/detreplay"
	"repro/internal/analysis/errsync"
	"repro/internal/analysis/leakcheck"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/poolsafe"
	"repro/internal/analysis/racecheck"
	"repro/internal/analysis/wiretaint"
)

// replayScope is the set of package suffixes detreplay applies to: the
// paths the chaos oracle and pipeline-equivalence tests replay bit-for-bit.
var replayScope = []string{
	"internal/rsync",
	"internal/core",
	"internal/chaos",
	"internal/server",
}

// crashsafeScope is where the write->fsync->rename / log->sync->apply
// discipline is load-bearing: everything that persists state.
var crashsafeScope = []string{
	"internal/kvstore",
	"internal/undolog",
	"internal/server",
	"internal/integrity",
	"cmd/deltacfs-server",
}

// wiretaintScope is where wire-decoded values can reach allocations,
// slicing, or the filesystem: the codec itself plus every consumer of
// decoded messages.
var wiretaintScope = []string{
	"internal/wire",
	"internal/server",
	"internal/core",
	"internal/rsync",
	"internal/kvstore",
}

// leakcheckScope is where fds, tickers, and goroutines churn at scale: the
// transport, the load harness, the chaos harness, and the server. A
// leak per accept multiplied by 10k clients is an fd-exhaustion outage.
var leakcheckScope = []string{
	"internal/wire",
	"internal/loadgen",
	"internal/chaos",
	"internal/server",
}

// racecheckScope is where shared mutable state lives behind the stripe and
// per-client locks: the sharded server (including the chunk and applied
// stores), the kvstore, the sync engine, and the transport.
var racecheckScope = []string{
	"internal/server",
	"internal/kvstore",
	"internal/core",
	"internal/wire",
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is main with its environment injected so the integration test can
// drive it: returns the process exit code.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deltavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowPath := fs.String("allow", "", "path to the deltavet.allow file (default: deltavet.allow at the module root, if present)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout instead of text lines")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	since := fs.String("since", "", "git ref: keep only findings in files changed since this ref")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintf(stderr, "deltavet: -json and -sarif are mutually exclusive\n")
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// loadFailed reports a failure to even analyze (exit 3), keeping the
	// machine-readable output shape valid for CI consumers.
	loadFailed := func(err error) int {
		fmt.Fprintf(stderr, "deltavet: %v\n", err)
		if *jsonOut {
			json.NewEncoder(stdout).Encode(map[string]string{"error": err.Error()})
		} else if *sarifOut {
			writeSARIF(stdout, nil, "", err)
		}
		return 3
	}

	var allows []analysis.Allow
	path := *allowPath
	if path == "" {
		if root, err := moduleRoot(dir); err == nil {
			if p := filepath.Join(root, "deltavet.allow"); fileExists(p) {
				path = p
			}
		}
	}
	if path != "" {
		var err error
		allows, err = analysis.ParseAllowFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "deltavet: %v\n", err)
			return 2
		}
	}

	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return loadFailed(err)
	}

	// One program over everything loaded: interprocedural facts (call
	// graph, taint, blocking summaries) span the whole analyzed tree.
	prog := analysis.NewProgram(pkgs)
	diags, err := analyzeAll(prog, pkgs)
	if err != nil {
		return loadFailed(err)
	}

	kept := analysis.Suppress(pkgs, diags, allows)
	// Suppressions that outlived their target are findings themselves.
	kept = append(kept, analysis.StaleAllows(pkgs, allows)...)

	root := dir
	if r, err := moduleRoot(dir); err == nil {
		root = r
	}
	if *since != "" {
		changed, err := changedFiles(root, *since)
		if err != nil {
			fmt.Fprintf(stderr, "deltavet: -since %s: %v\n", *since, err)
			return 2
		}
		kept = filterByFiles(kept, changed, root)
	}

	switch {
	case *jsonOut:
		if err := writeJSON(stdout, kept); err != nil {
			fmt.Fprintf(stderr, "deltavet: %v\n", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(stdout, kept, root, nil); err != nil {
			fmt.Fprintf(stderr, "deltavet: %v\n", err)
			return 2
		}
	default:
		for _, d := range kept {
			fmt.Fprintf(stdout, "%s\n", d)
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(stderr, "deltavet: %d finding(s)\n", len(kept))
		return 1
	}
	return 0
}

// analyzeAll runs every package's analyzer set over the shared program with
// a GOMAXPROCS-sized worker pool. Results are collected per package and
// merged with a position sort, so the output order is independent of worker
// scheduling. The first analyzer error wins (any error means exit 3 anyway).
func analyzeAll(prog *analysis.Program, pkgs []*analysis.Package) ([]analysis.Diagnostic, error) {
	results := make([][]analysis.Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = prog.Run(pkg, analyzersFor(pkg.PkgPath)...)
		}(i, pkg)
	}
	wg.Wait()
	var diags []analysis.Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, results[i]...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// changedFiles lists the paths changed since the merge base of HEAD and
// ref, made absolute against root. Diffing the merge base — not ref
// directly — keeps a PR branch's differential run scoped to the branch's
// own commits: after main moves on, `git diff origin/main` would also
// report every file main touched since the fork point.
func changedFiles(root, ref string) (map[string]bool, error) {
	base, err := gitOutput(root, "merge-base", "HEAD", ref)
	if err != nil {
		return nil, fmt.Errorf("git merge-base HEAD %s: %w", ref, err)
	}
	out, err := gitOutput(root, "diff", "--name-only", base, "--")
	if err != nil {
		return nil, fmt.Errorf("git diff: %w", err)
	}
	set := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		set[filepath.Join(root, filepath.FromSlash(line))] = true
	}
	return set, nil
}

// gitOutput runs one git command in root and returns its trimmed stdout,
// folding stderr into the error for diagnostics.
func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return "", fmt.Errorf("%s", strings.TrimSpace(string(ee.Stderr)))
		}
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

// filterByFiles keeps the diagnostics whose file is in changed. Relative
// diagnostic paths resolve against root.
func filterByFiles(diags []analysis.Diagnostic, changed map[string]bool, root string) []analysis.Diagnostic {
	kept := make([]analysis.Diagnostic, 0, len(diags))
	for _, d := range diags {
		f := d.Pos.Filename
		if !filepath.IsAbs(f) {
			f = filepath.Join(root, f)
		}
		if changed[f] {
			kept = append(kept, d)
		}
	}
	return kept
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// analyzersFor selects the analyzers for one package: the concurrency,
// durability, and shared-state checkers run everywhere; detreplay,
// crashsafe, wiretaint, and leakcheck only on their scoped paths.
func analyzersFor(pkgPath string) []*analysis.Analyzer {
	as := []*analysis.Analyzer{
		lockorder.Analyzer, blockunderlock.Analyzer, errsync.Analyzer,
		atomicsafe.Analyzer, poolsafe.Analyzer,
	}
	if inScope(pkgPath, replayScope) {
		as = append(as, detreplay.Analyzer)
	}
	if inScope(pkgPath, crashsafeScope) {
		as = append(as, crashsafe.Analyzer)
	}
	if inScope(pkgPath, wiretaintScope) {
		as = append(as, wiretaint.Analyzer)
	}
	if inScope(pkgPath, leakcheckScope) {
		as = append(as, leakcheck.Analyzer)
	}
	if inScope(pkgPath, racecheckScope) {
		as = append(as, racecheck.Analyzer)
	}
	return as
}

func inScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if analysis.PathSuffixMatch(pkgPath, s) {
			return true
		}
	}
	return false
}

func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not in a module")
	}
	return filepath.Dir(gomod), nil
}

func fileExists(p string) bool {
	st, err := os.Stat(p)
	return err == nil && !st.IsDir()
}
