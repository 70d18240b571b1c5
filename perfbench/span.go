package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names. Every span belongs to exactly one; the three core layers are
// the engine entry points the benchmark calls directly.
const (
	layerCoreOp    = "core.op"    // an application file operation through the engine
	layerCoreTick  = "core.tick"  // the writer engine's Tick (pack, delta encode, push)
	layerCoreApply = "core.apply" // the peer engine's Tick (poll, patch, apply)
	layerVFS       = "vfs"        // a call into an engine's backing vfs.FS
	layerWire      = "wire"       // a client RPC, send to reply, through wire.Endpoint
	layerServer    = "server"     // a server call through wire.Backend
	layerJournal   = "journal"    // a journal file operation through storagefault.FS
)

// reqKey is the (Client, Seq) idempotency key a push carries; both the
// client-side and the server-side wrapper see it, which is what links the
// two spans of one request.
type reqKey struct {
	client uint32
	seq    uint64
}

// span is one timed call into a layer. Times are nanoseconds on the
// tracer's monotonic clock.
type span struct {
	layer      string
	op         string // RPC name for wire and server spans
	key        reqKey // the calling client, and for a push its Seq; client 0 when a server call does not say
	n          int64  // vfs: bytes moved; wire push: payload bytes; server poll: batches returned; journal write: bytes written
	start, end int64
	children   []span
}

func (s *span) dur() int64 { return s.end - s.start }

// self is the span's duration minus the part of it its children cover.
func (s *span) self() int64 { return s.dur() - covered(s.start, s.end, s.children) }

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi]. Children may overlap each other (concurrent callees)
// or stick out of the parent (clock reads on different goroutines); neither
// is counted twice or outside the parent.
func covered(lo, hi int64, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// contains reports whether b lies within a's interval.
func contains(a, b *span) bool { return a.start <= b.start && b.end <= a.end }

// nest arranges the spans one load goroutine recorded into trees by
// interval containment: a span is the child of the innermost earlier span
// that contains it. Children a span already carries (linked server or
// journal spans) are kept. A span that only partly overlaps another is not
// its child; it becomes a sibling.
func nest(flat []span) []span {
	n := len(flat)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &flat[order[a]], &flat[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	parent := make([]int, n)
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && !contains(&flat[stack[len(stack)-1]], &flat[i]) {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	// Children sort after their parents, so walking the order backwards
	// completes every subtree before its parent takes it.
	built := make([]span, n)
	copy(built, flat)
	var roots []span
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		if p := parent[i]; p >= 0 {
			built[p].children = append(built[p].children, built[i])
		} else {
			roots = append(roots, built[i])
		}
	}
	return roots
}

// linkStore holds the finished server spans and journal events of the
// traced segment until the span that caused them ends and claims them.
// Server and journal wrappers run on the server's goroutines, so the store
// is shared and locked. The one load goroutine has at most one request in
// flight, so at most one server call runs at a time; the background journal
// committer's writes and fsyncs run beside it.
type linkStore struct {
	mu      sync.Mutex
	keyed   map[reqKey]span // server push spans by idempotency key
	other   span            // the last server span of an unkeyed call (poll, head, fetch)
	pending bool            // other has not been claimed
	journal []span          // every journal event of the segment, in the order they ended
	next    int             // journal events before next are claimed or belong to no push
}

func newLinkStore() *linkStore { return &linkStore{keyed: make(map[reqKey]span)} }

func (ls *linkStore) putServer(s span) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if s.key.seq != 0 {
		ls.keyed[s.key] = s
		return
	}
	ls.other, ls.pending = s, true
}

func (ls *linkStore) putJournal(s span) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.journal = append(ls.journal, s)
}

// claimServer returns the server span linked to the client span c: by
// (Client, Seq) for a push; otherwise the pending server span of the same
// call.
func (ls *linkStore) claimServer(c *span) (span, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if c.key.seq != 0 {
		s, ok := ls.keyed[c.key]
		if ok {
			delete(ls.keyed, c.key)
		}
		return s, ok
	}
	if !ls.pending || ls.other.op != c.op {
		return span{}, false
	}
	ls.pending = false
	return ls.other, true
}

// claimJournal ends the server push s: it returns the journal events logged
// since the previous push ended that lie inside s. The others are the
// background committer's, which no push contains; they stay in the log for
// the segment's counts but are no push's children.
func (ls *linkStore) claimJournal(s *span) []span {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var out []span
	for _, j := range ls.journal[ls.next:] {
		if contains(s, &j) {
			out = append(out, j)
		}
	}
	ls.next = len(ls.journal)
	return out
}

// journalEvents returns a copy of the segment's journal events.
func (ls *linkStore) journalEvents() []span {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]span(nil), ls.journal...)
}

func (ls *linkStore) reset() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.keyed = make(map[reqKey]span)
	ls.pending, ls.journal, ls.next = false, nil, 0
}

// tracer is the switch and clock every seam wrapper shares. While off, the
// wrappers pass calls straight through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	links *linkStore
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), links: newLinkStore()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// lane collects the client-side spans of the load goroutine. Wrappers
// bracket each call with begin/end; when the outermost call ends, the
// finished tree is nested and folded into the lane's aggregate. A lane is
// only touched by its own goroutine.
type lane struct {
	t     *tracer
	depth int
	buf   []span
	agg   *agg
}

func newLane(t *tracer) *lane { return &lane{t: t, agg: newAgg()} }

// begin opens a span and returns its start time, or -1 when tracing is off.
func (l *lane) begin() int64 {
	if l == nil || !l.t.enabled() {
		return -1
	}
	l.depth++
	return l.t.now()
}

// end closes a span opened by begin (a no-op when begin returned -1).
func (l *lane) end(s span, start int64) {
	if start < 0 {
		return
	}
	s.start, s.end = start, l.t.now()
	if s.layer == layerWire {
		if srv, ok := l.t.links.claimServer(&s); ok {
			s.children = append(s.children, srv)
		}
	}
	l.buf = append(l.buf, s)
	l.depth--
	if l.depth == 0 {
		for _, root := range nest(l.buf) {
			l.agg.addRoot(&root)
		}
		l.buf = l.buf[:0]
	}
}
