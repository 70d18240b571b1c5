// Command perfbench is the repository benchmark. It drives the production
// stack in one process over loopback TCP — core.Engine clients on DirFS
// backings, the wire transport, and the sharded server with its push
// journal at the default commit window — through one of three closed-loop
// workloads, checks that the result is correct, and prints its metrics.
//
//	perfbench --workload word|wechat|push --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it times each layer from outside through wrappers at the
// program's interface seams and prints the per-layer metrics. The last line
// of standard output is one JSON object; the lines before it are for
// people. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is what a run needs from each of the three workloads.
type workload interface {
	// seed installs the initial files on a client backing; nil means the
	// workload runs no engines.
	seed() seedFunc
	// session replays the workload from its start on a fresh rig: it warms
	// up, measures versions into p as one segment until the session's size
	// or p's duration is reached, and returns the oracle's violations.
	session(r *rig, p *phase) ([]string, error)
}

// setupReps is how many rigs a run builds before the first session, so
// that setup_s, the median build time, has several samples even when one
// session fills the run.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workdir  string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "word, wechat or push")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run with per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the run's files")
	flag.Parse()
	o.traced = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.out.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out   output
	notes []string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "word":
		return wordWorkload(seed), nil
	case "wechat":
		return wechatWorkload(seed), nil
	case "push":
		return newPushWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want word, wechat or push)", name)
}

func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	tr := newTracer()
	l := newLane(tr) // every workload runs on one goroutine
	t, err := newTransport(tr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	var builds []float64
	build := func() (*rig, error) {
		start := time.Now()
		r, err := newRig(root, t, w.seed(), l)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
		return r, nil
	}
	for i := 0; i < setupReps; i++ {
		r, err := build()
		if err != nil {
			return nil, err
		}
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("close rig: %w", err)
		}
	}

	timed := time.Duration(o.seconds * float64(time.Second))
	untraced := &phase{name: "untraced", dur: timed}
	phases := []*phase{untraced}
	var traced *phase
	if o.traced {
		untraced.dur = timed / 2
		traced = &phase{name: "traced", dur: timed - timed/2, traced: true}
		phases = append(phases, traced)
	}
	var violations []string
	var peaks []float64 // peak RSS of each untraced session
	sessions := 0
	for _, p := range phases {
		for !p.over(0) {
			if err := resetPeakRSS(); err != nil {
				return nil, fmt.Errorf("reset peak rss: %w", err)
			}
			r, err := build()
			if err != nil {
				return nil, err
			}
			bad, err := w.session(r, p)
			if err != nil {
				r.close()
				return nil, err
			}
			violations = append(violations, bad...)
			sessions++
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("close rig: %w", err)
			}
			if !p.traced {
				rss, err := peakRSSMB()
				if err != nil {
					return nil, fmt.Errorf("peak rss: %w", err)
				}
				peaks = append(peaks, rss)
			}
		}
	}

	res := &result{out: output{Metrics: map[string]metric{}}}
	add := func(name, unit string, v float64) { res.out.Metrics[name] = metric{v, unit} }
	note := func(format string, args ...any) { res.notes = append(res.notes, fmt.Sprintf(format, args...)) }

	// Attempted and failed count the measured versions of every phase,
	// plus one failure per oracle violation.
	for _, p := range phases {
		res.out.Attempted += p.attempts
		res.out.Failed += p.failed
	}
	res.out.Failed += len(violations)
	res.out.Correct = res.out.Failed == 0 && res.out.Attempted > 0

	note("meta: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d go=%s commit=%s",
		o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commitMeta())
	note("sessions: %d; rig builds: %d", sessions, len(builds))
	for _, p := range phases {
		note("phase %s: %d versions in %.3f s measured", p.name, p.attempts, float64(p.elapsed)/1e9)
	}
	note("sync latency samples: %d; fail_ratio: %.6f (%d of %d)", len(untraced.lat),
		ratio(float64(res.out.Failed), float64(res.out.Attempted)), res.out.Failed, res.out.Attempted)
	for _, v := range violations {
		note("oracle violation: %s", v)
	}

	if !o.traced {
		add("setup_s", "s", median(builds))
		add("versions_per_s", "1/s", median(untraced.rates))
		add("sync_p50_ms", "ms", quantile(untraced.lat, 0.5))
		add("sync_p90_ms", "ms", quantile(untraced.lat, 0.9))
		add("cpu_ms_per_version", "ms", median(untraced.cpuPerV))
		add("peak_rss_mb", "MB", median(peaks))
		add("tue", "ratio", ratio(float64(untraced.acc.up+untraced.acc.down), float64(untraced.acc.updateBytes)))
	} else {
		perLayer(add, traced, l.agg)
		add("trace.overhead_pct", "%", 100*(1-ratio(median(traced.rates), median(untraced.rates))))
	}
	names := make([]string, 0, len(res.out.Metrics))
	for n := range res.out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.out.Metrics[n]
		note("%-36s %14.4f %s", n, m.Value, m.Unit)
	}
	return res, nil
}

const mib = 1 << 20

// perLayer adds the per-layer metrics of the traced phase p.
func perLayer(add func(string, string, float64), p *phase, a *agg) {
	n := float64(p.attempts)
	perV := func(x float64) float64 { return ratio(x, n) }
	msPerV := func(ns int64) float64 { return perV(float64(ns) / 1e6) }
	c := p.acc

	add("vfs.self_ms_per_version", "ms", msPerV(a.self[layerVFS]))
	add("vfs.read_mb_per_version", "MB", perV(float64(a.vfsRead)/mib))
	add("vfs.write_mb_per_version", "MB", perV(float64(a.vfsWrite)/mib))
	add("vfs.calls_per_version", "count", perV(float64(a.vfsCalls)))

	add("core.op_p50_us", "us", quantileNs(a.coreOp, 0.5, 1e3))
	add("core.op_p90_us", "us", quantileNs(a.coreOp, 0.9, 1e3))
	add("core.op_self_ms_per_version", "ms", msPerV(a.self[layerCoreOp]))
	add("core.tick_self_ms_per_version", "ms", msPerV(a.self[layerCoreTick]))
	add("core.apply_self_ms_per_version", "ms", msPerV(a.self[layerCoreApply]))
	add("core.delta_triggers", "count", perV(float64(c.writer.DeltaTriggers)))
	add("core.inplace_deltas", "count", perV(float64(c.writer.InPlaceDeltas)))
	add("core.uploaded_nodes", "count", perV(float64(c.writer.UploadedNodes)))
	model := func(k string) float64 { return perV(float64(c.writerModel[k]) / mib) }
	add("core.model.compare_mb", "MB", model("compare_bytes"))
	add("core.model.rolling_mb", "MB", model("rolling_bytes"))
	add("core.model.copy_mb", "MB", model("copy_bytes"))

	add("wire.push_rtt_p50_us", "us", quantileNs(a.pushRTT, 0.5, 1e3))
	add("wire.transport_us_per_request", "us", ratio(float64(a.transport)/1e3, float64(a.linked)))
	add("wire.requests_per_version", "count", perV(float64(a.requests)))
	add("wire.ctx_switches_per_request", "count", ratio(float64(c.ctxSwitches), float64(a.requests)))
	add("wire.up_kb_per_version", "KB", perV(float64(c.up)/1024))
	add("wire.down_kb_per_version", "KB", perV(float64(c.down)/1024))

	add("server.push_self_us_p50", "us", quantileNs(a.serverPushSelf, 0.5, 1e3))
	add("server.copy_mb_per_version", "MB", perV(float64(c.serverCopy)/mib))
	add("server.poll_us_p50", "us", quantileNs(a.serverPoll, 0.5, 1e3))
	add("server.forwarded_per_poll", "count", ratio(float64(a.forwarded), float64(a.polls)))

	add("journal.fsyncs_per_version", "count", perV(float64(len(c.fsyncs))))
	add("journal.fsync_ms_p50", "ms", quantileNs(c.fsyncs, 0.5, 1e6))
	add("journal.write_bytes_per_payload_byte", "ratio", ratio(float64(c.journalBytes), float64(a.payload)))

	add("process.alloc_kb_per_version", "KB", perV(c.allocBytes/1024))
	add("process.gc_cpu_pct", "%", 100*ratio(c.gcCPU, c.allCPU))

	laneTime := float64(p.elapsed)
	pct := func(ns int64) float64 { return 100 * ratio(float64(ns), laneTime) }
	add("trace.unattributed_pct", "%", pct(int64(laneTime)-a.rootTime))
	add("core.self_pct", "%", pct(a.self[layerCoreOp]+a.self[layerCoreTick]+a.self[layerCoreApply]))
	add("vfs.self_pct", "%", pct(a.self[layerVFS]))
	add("wire.self_pct", "%", pct(a.self[layerWire]))
	add("server.self_pct", "%", pct(a.self[layerServer]))
	add("journal.self_pct", "%", pct(a.self[layerJournal]))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// commitMeta reports the commit and whether the tree was dirty, from the
// build's VCS stamp; a build outside a git checkout has none.
func commitMeta() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", "unknown"
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value
		}
	}
	return rev + " dirty=" + dirty
}
