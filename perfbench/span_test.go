package main

import (
	"testing"
)

func sp(layer string, start, end int64, children ...span) span {
	return span{layer: layer, start: start, end: end, children: children}
}

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	cases := []struct {
		name     string
		lo, hi   int64
		children []span
		want     int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, []span{sp("a", 10, 20), sp("b", 30, 50)}, 30},
		{"overlapping", 0, 100, []span{sp("a", 10, 40), sp("b", 30, 60)}, 50},
		{"nested", 0, 100, []span{sp("a", 10, 80), sp("b", 20, 30)}, 70},
		{"unsorted", 0, 100, []span{sp("b", 50, 60), sp("a", 10, 20), sp("c", 15, 55)}, 50},
		{"clipped", 20, 60, []span{sp("a", 0, 30), sp("b", 50, 90)}, 20},
		{"outside", 20, 60, []span{sp("a", 0, 10), sp("b", 70, 90)}, 0},
		{"touching", 0, 100, []span{sp("a", 10, 20), sp("b", 20, 30)}, 20},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.children); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfSubtractsChildrenOnce(t *testing.T) {
	// A wire span whose server child overlaps two journal spans; the
	// server span sticks out of the wire span by a clock skew of 2.
	srv := sp(layerServer, 20, 82, sp(layerJournal, 30, 40), sp(layerJournal, 35, 50))
	w := sp(layerWire, 10, 80, srv)
	if got := w.self(); got != 70-60 {
		t.Errorf("wire self = %d, want 10", got)
	}
	if got := srv.self(); got != 62-20 {
		t.Errorf("server self = %d, want 42", got)
	}
}

func TestNestBuildsTreesByContainment(t *testing.T) {
	// Spans in the order a lane ends them: children before parents.
	flat := []span{
		sp(layerVFS, 12, 20),
		sp(layerVFS, 25, 30),
		sp(layerWire, 40, 60, sp(layerServer, 45, 55)),
		sp(layerCoreTick, 10, 70),
		sp(layerVFS, 75, 80),
		sp(layerCoreOp, 72, 90),
		sp(layerVFS, 85, 95), // sticks out of core.op: a sibling, not a child
	}
	roots := nest(flat)
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3", len(roots))
	}
	a := newAgg()
	for i := range roots {
		a.addRoot(&roots[i])
	}
	want := map[string]int64{
		layerCoreTick: 60 - 8 - 5 - 20,
		layerVFS:      8 + 5 + 5 + 10,
		layerWire:     10,
		layerServer:   10,
		layerCoreOp:   18 - 5,
	}
	for layer, w := range want {
		if a.self[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, a.self[layer], w)
		}
	}
	var sum int64
	for _, v := range a.self {
		sum += v
	}
	if a.rootTime != 60+18+10 || sum != a.rootTime {
		t.Errorf("root time %d, self sum %d, want both 88", a.rootTime, sum)
	}
	if a.requests != 1 || a.linked != 1 || a.transport != 10 {
		t.Errorf("requests %d linked %d transport %d, want 1 1 10", a.requests, a.linked, a.transport)
	}
}

func TestLinkByClientAndSeq(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	ls := tr.links
	// Two clients push in turn with the same Seq. A committer fsync runs
	// between the pushes and a journal write inside the second.
	s1 := span{layer: layerServer, op: "push", key: reqKey{1, 7}, start: 110, end: 150}
	s1.children = ls.claimJournal(&s1)
	ls.putServer(s1)
	ls.putJournal(span{layer: layerJournal, op: "fsync", start: 155, end: 175})
	ls.putJournal(span{layer: layerJournal, op: "write", n: 300, start: 185, end: 190})
	s2 := span{layer: layerServer, op: "push", key: reqKey{2, 7}, start: 180, end: 200}
	s2.children = ls.claimJournal(&s2)
	ls.putServer(s2)
	if len(s1.children) != 0 || len(s2.children) != 1 || s2.children[0].op != "write" {
		t.Fatalf("journal spans went to the wrong push: %+v, %+v", s1.children, s2.children)
	}
	if ev := ls.journalEvents(); len(ev) != 2 {
		t.Fatalf("journal log holds %d events, want both", len(ev))
	}

	c2 := span{layer: layerWire, op: "push", key: reqKey{2, 8}, start: 170, end: 210}
	if _, ok := ls.claimServer(&c2); ok {
		t.Fatal("client 2 seq 8 claimed the span of seq 7")
	}
	c2.key.seq = 7
	if got, ok := ls.claimServer(&c2); !ok || got.start != 180 {
		t.Fatalf("client 2 claimed %+v, %v", got, ok)
	}
	c1 := span{layer: layerWire, op: "push", key: reqKey{1, 7}, start: 100, end: 160}
	got, ok := ls.claimServer(&c1)
	if !ok || got.key != (reqKey{1, 7}) || got.start != 110 {
		t.Fatalf("client 1 claimed %+v, %v", got, ok)
	}
	if _, ok := ls.claimServer(&c1); ok {
		t.Fatal("a server span was claimed twice")
	}

	// An unkeyed call takes the pending server span of the same call, once.
	ls.putServer(span{layer: layerServer, op: "poll", key: reqKey{client: 1}, start: 230, end: 240})
	head := span{layer: layerWire, op: "head", key: reqKey{client: 1}, start: 200, end: 250}
	if _, ok := ls.claimServer(&head); ok {
		t.Fatal("a head call claimed a poll span")
	}
	p1 := span{layer: layerWire, op: "poll", key: reqKey{client: 1}, start: 200, end: 250}
	if got, ok := ls.claimServer(&p1); !ok || got.start != 230 {
		t.Fatalf("poll claimed %+v, %v", got, ok)
	}
	if _, ok := ls.claimServer(&p1); ok {
		t.Fatal("the poll span was claimed twice")
	}
}

func TestLaneLinksAndFoldsOnOutermostEnd(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	l := newLane(tr)
	outer := l.begin()
	inner := l.begin()
	start := tr.now()
	srv := span{layer: layerServer, op: "push", key: reqKey{3, 1}, start: start, end: tr.now()}
	srv.children = tr.links.claimJournal(&srv)
	tr.links.putServer(srv)
	l.end(span{layer: layerWire, op: "push", key: reqKey{3, 1}}, inner)
	if len(l.buf) != 1 || l.agg.rootTime != 0 {
		t.Fatalf("inner end folded early: buf %d", len(l.buf))
	}
	l.end(span{layer: layerCoreTick}, outer)
	if len(l.buf) != 0 || l.depth != 0 {
		t.Fatalf("outer end left buf %d depth %d", len(l.buf), l.depth)
	}
	if l.agg.linked != 1 || len(l.agg.pushRTT) != 1 || len(l.agg.serverPushSelf) != 1 {
		t.Fatalf("agg %+v", l.agg)
	}

	tr.on.Store(false)
	if l.begin() != -1 {
		t.Fatal("begin while tracing is off must not open a span")
	}
}
