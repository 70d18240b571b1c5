// Package raceclean holds the legal concurrency idioms racecheck must stay
// quiet about: pre-publication initialization (in constructors, before the
// first go statement, and on values a function literal itself allocates),
// atomic.Pointer publication, lock-set helpers with deferred release, an
// explicit //deltavet:guardedby none declaration, a single-goroutine-
// confined type, stores into by-value local copies, and deferred literals
// that run under their encloser's locks.
package raceclean

import (
	"sync"
	"sync/atomic"
)

// ---- pre-publication initialization ----

type state struct {
	mu    sync.Mutex
	files map[string]int
}

// newState mutates the fresh value freely: nothing else can reference it.
func newState() *state {
	s := &state{}
	s.files = map[string]int{}
	s.files["boot"] = 1
	return s
}

func (s *state) put(k string, v int) {
	s.mu.Lock()
	s.files[k] = v
	s.mu.Unlock()
}

func (s *state) view(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[k]
}

// Serve initializes before publishing: the write precedes the first go
// statement, so the constructor-fresh value is still single-owner.
func Serve() {
	s := newState()
	s.files["a"] = 1
	go s.loop()
}

func (s *state) loop() { s.put("x", 1) }

// ---- atomic.Pointer publication (atomicsafe's domain, not racecheck's) ----

type snapshot struct{ n int }

type holder struct {
	cur atomic.Pointer[snapshot]
}

func (h *holder) publish(n int) {
	h.cur.Store(&snapshot{n: n})
}

func (h *holder) read() int { return h.cur.Load().n }

// ---- lock-set helper with deferred helper release ----

type cell struct {
	mu sync.Mutex
	n  int
}

type grid struct{ cells [4]cell }

//deltavet:lockorder-helper
func (g *grid) lockCells() {
	for i := range g.cells {
		g.cells[i].mu.Lock()
	}
}

//deltavet:lockorder-helper
func (g *grid) unlockCells() {
	for i := range g.cells {
		g.cells[i].mu.Unlock()
	}
}

func (g *grid) bump() {
	g.lockCells()
	defer g.unlockCells()
	for i := range g.cells {
		g.cells[i].n++
	}
}

func (g *grid) read(i int) int {
	g.cells[i].mu.Lock()
	defer g.cells[i].mu.Unlock()
	return g.cells[i].n
}

// ---- declared-unguarded field ----

type metrics struct {
	mu  sync.Mutex
	ops int
	// scratch is owned by the calibration goroutine alone; the lock the
	// other sites happen to hold is incidental.
	//deltavet:guardedby none
	scratch int
}

func (m *metrics) tick() {
	m.mu.Lock()
	m.ops++
	m.scratch++
	m.mu.Unlock()
}

func (m *metrics) tock() {
	m.mu.Lock()
	m.scratch++
	m.mu.Unlock()
}

func (m *metrics) solo() { m.scratch++ }

// ---- confined type: no locks anywhere, so no guard is ever inferred ----

type confined struct{ seq int }

func (c *confined) next() int {
	c.seq++
	return c.seq
}

// ---- by-value copy: a store into a local copy aliases nothing ----

type tuning struct {
	mu   sync.Mutex
	rate int
}

func (t *tuning) set(r int) {
	t.mu.Lock()
	t.rate = r
	t.mu.Unlock()
}

func (t *tuning) get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rate
}

// normalize mutates its by-value parameter: the store lands in the local
// copy, so no lock is needed even though tuning.rate is mu-guarded.
func normalize(tn tuning) tuning {
	if tn.rate == 0 {
		tn.rate = 8
	}
	return tn
}

// ---- deferred literal: runs in the encloser's frame, under its locks ----

func (s *state) drop(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// LIFO: this literal was registered after the Unlock defer, so it runs
	// before it — still under mu.
	defer func() {
		delete(s.files, k)
	}()
	s.files[k] = 0
}

// ---- literal-local allocation: fresh until published, whenever it runs ----

type result struct {
	mu sync.Mutex
	n  int
}

func (r *result) bump() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

func (r *result) read() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// seedResults initializes values the literal itself allocates: the write to
// res.n precedes any publication, so it cannot race no matter which
// goroutine eventually runs the literal.
func seedResults(out chan<- *result) {
	work := func(seed int) *result {
		res := &result{}
		res.n = seed
		return res
	}
	out <- work(1)
}

// ---- a lock held across a deep chain of unexported helpers ----

// Every call to h1..h8 happens with mu held, so each helper inherits mu as
// its entry context, eight levels down: the write in h8 is guarded.
type deep struct {
	mu sync.Mutex
	n  int
}

func (d *deep) bump() {
	d.mu.Lock()
	d.n++
	d.h1()
	d.mu.Unlock()
}

func (d *deep) h1() { d.h2() }
func (d *deep) h2() { d.h3() }
func (d *deep) h3() { d.h4() }
func (d *deep) h4() { d.h5() }
func (d *deep) h5() { d.h6() }
func (d *deep) h6() { d.h7() }
func (d *deep) h7() { d.h8() }
func (d *deep) h8() { d.n = 0 }

func (d *deep) get() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// runDeep publishes d to a second goroutine.
func runDeep(d *deep) int {
	go d.bump()
	return d.get()
}
