package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Every workload is a closed loop: the next operation is issued when the
// previous one returns, and the engines' logical clock jumps ahead as fast
// as calls return.

// engineWorkload replays one of the paper's application traces through the
// writer engine, with a peer engine in the same sharing group applying what
// the server forwards.
type engineWorkload struct {
	tr *trace.Trace
	// gap separates versions: the trace's ops of one save or round share a
	// timestamp to within milliseconds, and versions are seconds apart.
	gap time.Duration
	// perVersionUpdate is the update size each version adds to the TUE
	// divisor; countWrites names the file whose written bytes are the
	// update instead (in-place workloads).
	perVersionUpdate int64
	countWrites      string
	// A session is warmup versions followed by sessionVersions measured
	// ones.
	warmup, sessionVersions int
}

// The paper's Word trace saves a 12.1 MB document 61 times, growing it to
// 16.7 MB. A word session scales the document by wordScale and makes
// wordSaves measured saves, which together grow it by the paper's total.
// The session stays this short because the server keeps conflict history
// for every temporary name a save uses, about two document copies per
// save, for as long as it runs; a run holds many sessions.
const (
	wordScale = 0.1
	wordSaves = 50
)

func wordWorkload(seed int64) *engineWorkload {
	c := trace.PaperWordConfig().Scaled(wordScale)
	const warmup = 3
	c.Saves = warmup + wordSaves + 1
	c.Growth = c.Growth * 61 / wordSaves
	c.Seed = seed
	return &engineWorkload{
		tr:               trace.Word(c),
		gap:              c.Interval / 2,
		perVersionUpdate: int64(c.Growth + c.Edits*c.EditSize),
		warmup:           warmup,
		sessionVersions:  wordSaves,
	}
}

// The paper's WeChat trace modifies a 131 MB SQLite database 373 times; a
// wechat session scales the database by wechatScale and makes wechatRounds
// measured rounds, each with the paper's writes. At a quarter of the
// paper's size a session peaked at about 600 MB, and throughput spread
// more from run to run.
const (
	wechatScale  = 0.0625
	wechatRounds = 100
)

func wechatWorkload(seed int64) *engineWorkload {
	c := trace.PaperWeChatConfig().Scaled(wechatScale)
	const warmup = 5
	c.Rounds = warmup + wechatRounds + 1
	c.Seed = seed
	return &engineWorkload{
		tr:              trace.WeChat(c),
		gap:             c.Interval / 2,
		countWrites:     c.Path,
		warmup:          warmup,
		sessionVersions: wechatRounds,
	}
}

func (w *engineWorkload) seed() seedFunc { return w.tr.Setup }

// Logical time: each version starts versionStride after the previous one,
// and the engines tick tickAfter into it — past the upload delay, so the
// writer ships the version, and past the relation timeout, so the save's
// temporary files expire.
const (
	versionStride = 10 * time.Second
	tickAfter     = 3500 * time.Millisecond
)

var errStop = errors.New("phases done")

// engineLoop feeds the trace's ops to the writer and closes each version
// by ticking the writer (which pushes it) and the peer (which polls and
// applies it).
type engineLoop struct {
	r *rig
	p *phase
	w *engineWorkload

	done      int // versions finished this session
	measuring bool
	recs      []versionRec

	active  bool
	cur     versionRec
	firstAt time.Duration // trace time of the version's first op
	base    time.Duration // logical time the version starts at
	upd     int64
	opErr   error

	conflicts, remoteConflicts, remoteApplied int
}

func (w *engineWorkload) session(r *rig, p *phase) ([]string, error) {
	d := &engineLoop{r: r, p: p, w: w, base: versionStride}
	err := w.tr.Run(d.emit)
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	if d.measuring {
		// The trace ran out: close its last version.
		d.finish()
		p.endSegment(d.recs)
	}
	return w.oracle(r), nil
}

func (d *engineLoop) emit(op vfs.Op, at time.Duration) error {
	if d.active && at-d.firstAt >= d.w.gap {
		d.finish()
		switch {
		case d.done == d.w.warmup:
			d.measuring = true
			d.p.beginSegment(d.r)
		case d.measuring && (len(d.recs) >= d.w.sessionVersions || d.p.over(d.r.tr.now())):
			d.measuring = false
			d.p.endSegment(d.recs)
			return errStop
		}
	}
	if !d.active {
		d.active = true
		d.firstAt = at
		d.upd = d.w.perVersionUpdate
		d.opErr = nil
		d.cur = versionRec{start: d.r.tr.now()}
	}
	if op.Kind == vfs.OpWrite && op.Path == d.w.countWrites {
		d.upd += int64(len(op.Data))
	}
	d.r.clk.Set(d.base + at - d.firstAt)
	if err := vfs.Apply(d.r.clients[0].app, op); err != nil && d.opErr == nil {
		d.opErr = fmt.Errorf("%v: %w", op, err)
	}
	return nil
}

// finish ticks both engines at the version's upload time and records the
// version. It fails the version when an op failed, when anything is left
// unsent, or when either side saw a conflict or the peer applied nothing.
func (d *engineLoop) finish() {
	now := d.base + tickAfter
	d.r.clk.Set(now)
	w, p := d.r.clients[0], d.r.clients[1]

	t := w.lane.begin()
	w.eng.Tick(now)
	w.lane.end(span{layer: layerCoreTick}, t)

	t = p.lane.begin()
	p.eng.Tick(now)
	p.lane.end(span{layer: layerCoreApply}, t)
	d.cur.applied = d.r.tr.now()

	ws, ps := w.eng.Stats(), p.eng.Stats()
	d.cur.ok = d.opErr == nil && w.eng.QueueLen() == 0 && w.eng.UnsentBatches() == 0 &&
		w.eng.LastPushError() == nil && ws.Conflicts == d.conflicts &&
		ps.RemoteConflicts == d.remoteConflicts && ps.RemoteApplied > d.remoteApplied
	d.conflicts, d.remoteConflicts, d.remoteApplied = ws.Conflicts, ps.RemoteConflicts, ps.RemoteApplied

	if d.measuring {
		d.recs = append(d.recs, d.cur)
		d.p.acc.updateBytes += d.upd
	}
	d.done++
	d.base += versionStride
	d.active = false
}

// oracle drains the writer, lets the peer poll once more, and checks that
// every user file is byte-identical on the writer's backing, the server and
// the peer's backing, and that all three hold the same set of files.
func (w *engineWorkload) oracle(r *rig) []string {
	wr, pe := r.clients[0], r.clients[1]
	var bad []string
	if err := wr.eng.Drain(); err != nil {
		bad = append(bad, fmt.Sprintf("writer drain: %v", err))
	}
	r.clk.Advance(versionStride)
	pe.eng.Tick(r.clk.Now())

	wf, err := userFiles(wr.dirfs)
	if err != nil {
		return append(bad, fmt.Sprintf("list writer: %v", err))
	}
	pf, err := userFiles(pe.dirfs)
	if err != nil {
		return append(bad, fmt.Sprintf("list peer: %v", err))
	}
	sf := userPaths(r.srv.Files())
	if !equalStrings(wf, pf) || !equalStrings(wf, sf) {
		bad = append(bad, fmt.Sprintf("file sets differ: writer %v, server %v, peer %v", wf, sf, pf))
	}
	for _, p := range wf {
		a, err := wr.dirfs.ReadFile(p)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: writer: %v", p, err))
			continue
		}
		s, ok := r.srv.FileContent(p)
		if !ok || !bytes.Equal(a, s) {
			bad = append(bad, fmt.Sprintf("%s: server copy differs from the writer's", p))
		}
		b, err := pe.dirfs.ReadFile(p)
		if err != nil || !bytes.Equal(a, b) {
			bad = append(bad, fmt.Sprintf("%s: peer copy differs from the writer's", p))
		}
	}
	if len(wf) == 0 {
		bad = append(bad, "no user files")
	}
	return bad
}

// userFiles lists fs without the engine's private directory.
func userFiles(fs vfs.FS) ([]string, error) {
	names, err := fs.List("")
	if err != nil {
		return nil, err
	}
	return userPaths(names), nil
}

func userPaths(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if !strings.HasPrefix(n, ".deltacfs/") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pushWorkload has two clients in one sharing group. Each pushes small
// keyed full-file batches over its own paths and polls the batches the
// server forwards from the other every pollEvery pushes. No engine runs.
// The two connections take turns on one load goroutine: with a goroutine
// each, whether their requests overlapped on the two CPUs changed from run
// to run, and throughput swung by ±15% at an unchanged median round trip.
type pushWorkload struct {
	seedBase int64
	pushers  [2]*pusher
}

// The push traffic is the repository's load generator's (internal/loadgen):
// each client cycles 4 payloads of 256 bytes over 2 paths of its own and
// polls every 16 pushes. The payload bytes come from the seed. A push
// session is pushWarmup pushes per client, then pushSession measured
// pushes per client. The server's journal holds every push of a session in
// memory until a snapshot truncates it, which a session never takes.
const (
	pushPaths    = 2
	pollEvery    = 16
	payloadCount = 4
	payloadBytes = 256
	pushWarmup   = 1000
	pushSession  = 5000
)

// pusher is one push client's state within a session.
type pusher struct {
	c        *client
	payloads [][]byte
	paths    []string
	vers     []version.ID
	last     [][]byte
	ctr      *version.Counter
	seq      uint64
}

func newPushWorkload(seed int64) *pushWorkload { return &pushWorkload{seedBase: seed} }

func (w *pushWorkload) seed() seedFunc { return nil }

// newPusher generates client i's paths and payloads from the seed.
func (w *pushWorkload) newPusher(i int, c *client) *pusher {
	rng := rand.New(rand.NewSource(w.seedBase*2 + int64(i)))
	p := &pusher{c: c, vers: make([]version.ID, pushPaths), last: make([][]byte, pushPaths),
		ctr: version.NewCounter(c.ep.id)}
	for k := 0; k < payloadCount; k++ {
		b := make([]byte, payloadBytes)
		rng.Read(b)
		p.payloads = append(p.payloads, b)
	}
	for k := 0; k < pushPaths; k++ {
		p.paths = append(p.paths, fmt.Sprintf("push/c%d/f%d", i, k))
	}
	return p
}

func (w *pushWorkload) session(r *rig, ph *phase) ([]string, error) {
	for i := range w.pushers {
		w.pushers[i] = w.newPusher(i, r.clients[i])
	}
	w.run(r.tr, pushWarmup, nil)
	ph.beginSegment(r)
	ph.endSegment(w.run(r.tr, pushSession, ph))
	return w.oracle(r), nil
}

// run makes n pushes per client, the clients taking turns, or fewer if the
// phase p is over first. It returns the versions.
func (w *pushWorkload) run(tr *tracer, n int, ph *phase) []versionRec {
	recs := make([]versionRec, 0, 2*n)
	for i := 0; i < n && (ph == nil || !ph.over(tr.now())); i++ {
		for _, p := range w.pushers {
			rec, payload := p.push(tr)
			recs = append(recs, rec)
			if ph != nil {
				ph.acc.updateBytes += payload
			}
		}
	}
	return recs
}

// push makes one push, and every pollEvery pushes one poll, returning the
// version and its payload size.
func (p *pusher) push(tr *tracer) (versionRec, int64) {
	k := int(p.seq % pushPaths)
	payload := p.payloads[p.seq%payloadCount]
	p.seq++
	node := &wire.Node{Kind: wire.NFull, Path: p.paths[k], Full: payload, Base: p.vers[k], Ver: p.ctr.Next()}
	b := &wire.Batch{Seq: p.seq, Nodes: []*wire.Node{node}}
	rec := versionRec{start: tr.now()}
	reply, err := p.c.ep.Push(b)
	rec.applied = tr.now()
	rec.ok = err == nil && reply.Err == "" && len(reply.Statuses) == 1 && reply.Statuses[0] == wire.StatusOK
	if rec.ok {
		p.vers[k], p.last[k] = node.Ver, payload
	}
	if p.seq%pollEvery == 0 {
		// Forwarded batches are only drained here; a failed poll shows
		// as a throttled or failed push later.
		_, _ = p.c.ep.Poll()
	}
	return rec, int64(len(payload))
}

// oracle fetches every path back and checks each client's last version and
// content, and that the server applied no keyed batch twice.
func (w *pushWorkload) oracle(r *rig) []string {
	var bad []string
	for i, p := range w.pushers {
		for k, path := range p.paths {
			fr, err := p.c.ep.Fetch(path)
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("client %d fetch %s: %v", i, path, err))
			case p.vers[k].IsZero():
				bad = append(bad, fmt.Sprintf("client %d never pushed %s", i, path))
			case !fr.Exists || fr.Ver != p.vers[k] || !bytes.Equal(fr.Content, p.last[k]):
				bad = append(bad, fmt.Sprintf("client %d %s: server holds %v, last pushed %v", i, path, fr.Ver, p.vers[k]))
			}
		}
	}
	if d := r.srv.DuplicateApplies(); d != 0 {
		bad = append(bad, fmt.Sprintf("%d duplicate applies", d))
	}
	return bad
}

// The wrappers must fit their seams.
var (
	_ vfs.FS        = (*timedFS)(nil)
	_ wire.Endpoint = (*timedEndpoint)(nil)
	_ wire.Backend  = (*timedBackend)(nil)
)
