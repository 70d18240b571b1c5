// Command benchall regenerates every table and figure of the paper's
// evaluation section. By default it runs everything at the given trace
// scale; individual experiments can be selected.
//
// Usage:
//
//	benchall [-scale 1.0] [-exp all|fig1|fig2|table2|fig8|fig9|table3|table4|chaos|crashstorm|scaling|loadsweep]
//	         [-chaos-seeds 5] [-storm-seeds 5] [-clients 1,2,4,8,16] [-json report.json] [-allow-dirty]
//	         [-load-clients 64,512,2048,10000] [-load-ops 40000] [-group-size 4]
//	         [-commit-windows 0,1ms,5ms,20ms]
//	         [-cpuprofile cpu.pprof] [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// Scale 1.0 reproduces the paper's trace dimensions (a 131 MB SQLite file,
// 373 update rounds, ...); smaller scales shrink files and counts
// proportionally for quick runs. With -json, the numbers behind the selected
// tables and figures are additionally written to the given path as one
// machine-readable document.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/loadgen"
)

// loadWorkerArg re-invokes this binary as a loadsweep client worker: big
// rungs split their client herd across subprocesses so the descriptor
// budget fits (each loopback connection costs two fds in one process).
const loadWorkerArg = "__loadworker"

func main() {
	if len(os.Args) > 1 && os.Args[1] == loadWorkerArg {
		if err := loadgen.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchall %s: %v\n", loadWorkerArg, err)
			os.Exit(1)
		}
		return
	}
	scale := flag.Float64("scale", 1.0, "trace scale (1.0 = paper dimensions)")
	exp := flag.String("exp", "all", "experiment: all|fig1|fig2|table2|fig8|fig9|table3|table4|chaos|crashstorm|scaling|loadsweep")
	iters := flag.Int("filebench-iters", 2000, "filebench iterations per personality")
	chaosSeeds := flag.Int("chaos-seeds", 5, "chaos schedules per fault profile")
	stormSeeds := flag.Int("storm-seeds", 5, "crash-storm seeds per storage fault profile")
	allowDirty := flag.Bool("allow-dirty", false, "permit -json output from a dirty working tree")
	clients := flag.String("clients", "1,2,4,8,16", "client counts for the -exp scaling throughput sweep")
	scalingOps := flag.Int("scaling-ops", 1500, "pushes per client in the -exp scaling sweep")
	loadClients := flag.String("load-clients", "64,512,2048,10000", "client counts for the -exp loadsweep TCP sweep")
	loadOps := flag.Int("load-ops", 40000, "total pushes per loadsweep rung (split across clients)")
	loadReps := flag.Int("load-reps", 2, "runs per loadsweep configuration (best kept; alternating order)")
	groupSize := flag.Int("group-size", 4, "clients per sharing group in the loadsweep")
	commitWindows := flag.String("commit-windows", "0,1ms,5ms,20ms",
		"journal commit windows for the loadsweep durability sweep (empty = skip)")
	jsonPath := flag.String("json", "", "also write the assembled numbers as JSON to this path")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this path")
	mutexProf := flag.String("mutexprofile", "", "write a mutex-contention profile to this path")
	blockProf := flag.String("blockprofile", "", "write a blocking profile to this path")
	flag.Parse()

	stop, err := startProfiles(*cpuProf, *mutexProf, *blockProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	runErr := run(runOpts{
		exp: *exp, scale: *scale, iters: *iters, chaosSeeds: *chaosSeeds, stormSeeds: *stormSeeds,
		clients: *clients, scalingOps: *scalingOps,
		loadClients: *loadClients, loadOps: *loadOps, loadReps: *loadReps, groupSize: *groupSize,
		commitWindows: *commitWindows, jsonPath: *jsonPath, allowDirty: *allowDirty,
	})
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", runErr)
		os.Exit(1)
	}
}

// startProfiles enables the requested runtime profilers and returns the
// function that stops them and writes the profile files. Profiles are written
// even when the run itself fails, so a crashing experiment can still be
// diagnosed.
func startProfiles(cpuPath, mutexPath, blockPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	writeProf := func(name, path string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		return nil
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if err := writeProf("mutex", mutexPath); err != nil {
			return err
		}
		return writeProf("block", blockPath)
	}, nil
}

// parseClients parses the -clients list ("1,2,4,8,16").
func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid -clients entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-clients is empty")
	}
	return out, nil
}

// runOpts carries the parsed flags into run.
type runOpts struct {
	exp           string
	scale         float64
	iters         int
	chaosSeeds    int
	stormSeeds    int
	clients       string
	scalingOps    int
	loadClients   string
	loadOps       int
	loadReps      int
	groupSize     int
	commitWindows string
	jsonPath      string
	allowDirty    bool
}

// parseWindows parses the -commit-windows list ("0,1ms,5ms,20ms").
func parseWindows(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("invalid -commit-windows entry %q", part)
		}
		out = append(out, d)
	}
	return out, nil
}

func run(o runOpts) error {
	exp, scale, iters, chaosSeeds := o.exp, o.scale, o.iters, o.chaosSeeds
	clients, scalingOps, jsonPath := o.clients, o.scalingOps, o.jsonPath
	out := os.Stdout
	needMatrix := exp == "all" || exp == "table2" || exp == "fig8" || exp == "fig9"
	rep := &experiment.Report{Scale: scale}

	// A committed BENCH_*.json claiming to be "commit X" while the tree had
	// uncommitted edits is a corrupted trajectory point. Refuse up front —
	// before any long experiment runs — unless the caller opts in.
	if jsonPath != "" {
		rep.Meta = experiment.NewRunMeta()
		if rep.Meta.Dirty && !o.allowDirty {
			return fmt.Errorf("-json refused: working tree is dirty, so the report would not be " +
				"attributable to a commit; commit first or pass -allow-dirty")
		}
	}

	var m *experiment.Matrix
	if needMatrix {
		fmt.Fprintf(out, "running the evaluation matrix at scale %.2f (this replays all four traces through all systems)...\n\n", scale)
		var err error
		m, err = experiment.RunMatrix(scale)
		if err != nil {
			return err
		}
		rep.AddMatrix(m)
	}

	if exp == "all" || exp == "fig1" {
		rs, err := experiment.Fig1(scale)
		if err != nil {
			return err
		}
		experiment.PrintFig1(out, rs)
		fmt.Fprintln(out)
		rep.Fig1 = rs
	}
	if exp == "all" || exp == "fig2" {
		r, err := experiment.Fig2(scale)
		if err != nil {
			return err
		}
		experiment.PrintFig2(out, r)
		fmt.Fprintln(out)
		rep.Fig2 = r
	}
	if exp == "all" || exp == "table2" {
		m.PrintTable2(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "fig8" {
		m.PrintFig8(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "fig9" {
		m.PrintFig9(out)
		fmt.Fprintln(out)
	}
	if exp == "all" || exp == "table3" {
		rs, err := experiment.Table3(iters)
		if err != nil {
			return err
		}
		experiment.PrintTable3(out, rs)
		fmt.Fprintln(out)
		rep.Table3 = rs
	}
	if exp == "all" || exp == "table4" {
		rs, err := experiment.Table4()
		if err != nil {
			return err
		}
		experiment.PrintTable4(out, rs)
		fmt.Fprintln(out)
		rep.Table4 = rs
	}
	// The chaos sweep is opt-in only (not part of "all"): its convergence
	// and duplicate-apply columns are deterministic, but the raw transport
	// counters (retries, dedup hits) depend on goroutine scheduling, which
	// would break the byte-diff determinism of the default output.
	if exp == "chaos" {
		rs, err := experiment.ChaosSweep(chaosSeeds)
		if err != nil {
			return err
		}
		experiment.PrintChaos(out, rs)
		fmt.Fprintln(out)
		rep.Chaos = rs
	}
	// The crash-storm sweep is opt-in: every-prefix crash exploration across
	// the storage failure modes plus the composed network+storage profile.
	// Coverage counters go into the report; any recovery-invariant violation
	// fails the run (unlike throughput, crash consistency is asserted).
	if exp == "crashstorm" {
		rs, err := experiment.CrashStormSweep(o.stormSeeds)
		if err != nil {
			return err
		}
		experiment.PrintCrashStorm(out, rs)
		fmt.Fprintln(out)
		rep.CrashStorm = rs
		if err := experiment.CheckCrashStorm(rs); err != nil {
			return err
		}
	}
	// The scaling sweep is likewise opt-in: it reports wall-clock throughput,
	// which varies with machine and core count, so it would break the
	// byte-diff determinism of the default output.
	if exp == "scaling" {
		counts, err := parseClients(clients)
		if err != nil {
			return err
		}
		rs, err := experiment.ScalingSweep(counts, scalingOps)
		if err != nil {
			return err
		}
		experiment.PrintScaling(out, rs)
		fmt.Fprintln(out)
		rep.Scaling = rs
	}
	// The load sweep is opt-in for the same reason, and goes further: it
	// drives real loopback TCP connections through the wire transport,
	// striped applied log vs the 1-stripe baseline, plus the journal
	// commit-window sweep. A rung that fails to converge or sees client
	// errors fails the run; throughput itself is reported, never asserted.
	if exp == "loadsweep" {
		counts, err := parseClients(o.loadClients)
		if err != nil {
			return err
		}
		workerCmd := []string{selfExe(), loadWorkerArg}
		rs, err := experiment.LoadSweep(experiment.LoadSweepConfig{
			ClientCounts: counts,
			TotalOps:     o.loadOps,
			GroupSize:    o.groupSize,
			WorkerCmd:    workerCmd,
			Repeat:       o.loadReps,
		})
		if err != nil {
			return err
		}
		experiment.PrintLoad(out, rs)
		fmt.Fprintln(out)
		rep.Load = rs
		windows, err := parseWindows(o.commitWindows)
		if err != nil {
			return err
		}
		if len(windows) > 0 {
			cw, err := experiment.CommitWindowSweep(windows, 64, 6400, workerCmd)
			if err != nil {
				return err
			}
			experiment.PrintCommitWindows(out, cw)
			fmt.Fprintln(out)
			rep.CommitWindows = cw
		}
		if err := experiment.CheckLoad(rs); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := rep.WriteFile(jsonPath); err != nil {
			return fmt.Errorf("writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(out, "wrote JSON report to %s\n", jsonPath)
	}
	return nil
}

// selfExe is the path workers are spawned from: the running binary itself.
func selfExe() string {
	if exe, err := os.Executable(); err == nil {
		return exe
	}
	return os.Args[0]
}
