package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// A run measures one or two phases (untraced, then traced). A phase is
// made of sessions: each session builds a fresh rig, replays the workload
// from its start, warms up on its first versions, measures the rest as
// one segment, checks the oracle and closes the rig. Sessions have a fixed
// size so that memory the program keeps per version is bounded by the
// session, not by how fast the program runs; the phase ends at the first
// version boundary after its measured segments add up to its duration.
type phase struct {
	name   string
	traced bool
	dur    time.Duration

	elapsed  int64     // measured time of the finished segments, ns
	lat      []float64 // sync latency of each synced version, ms
	rates    []float64 // synced versions per second of each segment
	cpuPerV  []float64 // CPU ms per version of each segment
	failed   int
	attempts int
	acc      counters

	// the segment in progress
	segRig    *rig
	segT0     int64
	segBefore snap
}

// counters are the phase totals of everything measured per segment.
type counters struct {
	snap
	updateBytes  int64   // TUE divisor: bytes the application changed
	fsyncs       []int64 // journal fsync durations
	journalBytes int64   // bytes written to the journal
}

// versionRec is one committed file version: a save, an SQLite round or a
// push. start is when the application began it; applied is when the peer
// had applied it, or on push when the server's acknowledgement returned.
// ok is false when any step reported failure.
type versionRec struct {
	start, applied int64
	ok             bool
}

// over reports whether the phase has measured its duration.
func (p *phase) over(now int64) bool {
	t := p.elapsed
	if p.segRig != nil {
		t += now - p.segT0
	}
	return t >= int64(p.dur)
}

// beginSegment starts measuring on r.
func (p *phase) beginSegment(r *rig) {
	r.tr.links.reset()
	r.tr.on.Store(p.traced)
	p.segBefore = takeSnap(r)
	p.segRig = r
	p.segT0 = r.tr.now()
}

// endSegment stops measuring and adds the segment's versions and counters
// to the phase. A version's sync latency runs from when the application
// began it until the server had acknowledged it — the server journals a
// push before it acknowledges it — and, on the engine workloads, the peer
// had applied it.
func (p *phase) endSegment(recs []versionRec) {
	r := p.segRig
	t1 := r.tr.now()
	r.tr.on.Store(false)
	after := takeSnap(r)
	p.elapsed += t1 - p.segT0
	p.acc.add(after, p.segBefore)
	synced := 0
	for _, rec := range recs {
		p.attempts++
		if !rec.ok {
			p.failed++
			continue
		}
		synced++
		p.lat = append(p.lat, float64(rec.applied-rec.start)/1e6)
	}
	p.rates = append(p.rates, float64(synced)/(float64(t1-p.segT0)/1e9))
	if len(recs) > 0 {
		p.cpuPerV = append(p.cpuPerV, float64(after.cpu-p.segBefore.cpu)/1e6/float64(len(recs)))
	}
	for _, j := range r.tr.links.journalEvents() {
		if j.start < p.segT0 || j.start >= t1 {
			continue
		}
		switch j.op {
		case "fsync":
			p.acc.fsyncs = append(p.acc.fsyncs, j.dur())
		case "write":
			p.acc.journalBytes += j.n
		}
	}
	p.segRig = nil
}

// snap is the process and program counters at a segment boundary.
type snap struct {
	cpu           time.Duration // user+sys, getrusage
	ctxSwitches   int64         // voluntary+involuntary, getrusage
	allocBytes    float64       // runtime/metrics
	gcCPU, allCPU float64       // runtime/metrics, cpu-seconds
	up, down      int64         // the writing clients' TrafficMeters
	writer        core.Stats    // first client's engine
	writerModel   map[string]int64
	serverCopy    int64
}

// add accumulates the difference b - a.
func (c *counters) add(b, a snap) {
	c.cpu += b.cpu - a.cpu
	c.ctxSwitches += b.ctxSwitches - a.ctxSwitches
	c.allocBytes += b.allocBytes - a.allocBytes
	c.gcCPU += b.gcCPU - a.gcCPU
	c.allCPU += b.allCPU - a.allCPU
	c.up += b.up - a.up
	c.down += b.down - a.down
	c.writer.DeltaTriggers += b.writer.DeltaTriggers - a.writer.DeltaTriggers
	c.writer.InPlaceDeltas += b.writer.InPlaceDeltas - a.writer.InPlaceDeltas
	c.writer.UploadedNodes += b.writer.UploadedNodes - a.writer.UploadedNodes
	if c.writerModel == nil {
		c.writerModel = make(map[string]int64)
	}
	for k, v := range b.writerModel {
		c.writerModel[k] += v - a.writerModel[k]
	}
	c.serverCopy += b.serverCopy - a.serverCopy
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap(r *rig) snap {
	var s snap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxSwitches = ru.Nvcsw + ru.Nivcsw
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.allocBytes = sampleValue(samples[0])
	s.gcCPU = sampleValue(samples[1])
	s.allCPU = sampleValue(samples[2])
	for _, c := range r.writers() {
		s.up += c.traffic.Uploaded()
		s.down += c.traffic.Downloaded()
	}
	if w := r.clients[0]; w.eng != nil {
		s.writer = w.eng.Stats()
		s.writerModel = w.cpu.Breakdown()
	}
	s.serverCopy = r.srvCPU.Breakdown()["copy_bytes"]
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// resetPeakRSS returns the process's unused heap to the system and restarts
// the kernel's peak resident set size count (VmHWM) from the current size.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
