// Package leakcheck proves resource lifecycles on every CFG path: network
// connections, listeners, files, tickers, and timers acquired in a function
// must be closed/stopped, handed off, or returned on every path to return —
// and a spawned goroutine must have a termination path at all.
//
// The bounded transport lives or dies by this: serve.go holds thousands of
// polled conns with a fixed worker pool, so a single accept-path leak
// multiplied by 10k clients exhausts fds, and a worker loop with no quit
// signal survives Stop and keeps the listener pinned. The checker encodes
// the ownership conventions the transport actually uses:
//
//   - a deferred Close/Stop discharges the obligation from the defer onward
//     (returns *before* the defer statement still leak);
//   - passing the resource to a callee that transitively closes it counts,
//     with the callee chain remembered;
//   - returning the resource, storing it into a struct/global/channel, or
//     handing it to a goroutine or closure transfers ownership — the new
//     owner's paths are checked where they live;
//   - a use of the acquire's paired error (return err, log it) marks an
//     error exit: the resource was never acquired on that path.
//
// Diagnostics point at the acquire site and name the first leaking return,
// so "conn from Accept is not released" comes with the exact exit that
// drops it.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"repro/internal/analysis"
	"repro/internal/analysis/alias"
	"repro/internal/analysis/cfg"
)

// Analyzer is the leakcheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "leakcheck",
	Doc:  "conns, files, tickers, and goroutines must be closed/stopped/joined on every CFG path",
	Run:  run,
}

type fact struct {
	// closes: linearized parameters that are transitively Closed/Stopped.
	closes *alias.Summary
	// getters: functions whose result is (transitively) a fresh resource.
	getters map[*types.Func]string
}

// acquireTag classifies a call as a resource acquisition, returning a
// human-readable origin ("net.Dial", "time.NewTicker") or "".
func acquireTag(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.CalleeOf(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch analysis.PkgPathOf(fn) {
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenTCP", "DialTCP":
			return "net." + name
		case "Accept":
			return "Accept"
		}
	case "crypto/tls":
		if name == "Dial" || name == "Listen" {
			return "tls." + name
		}
	case "os":
		switch name {
		case "Open", "Create", "OpenFile":
			return "os." + name
		}
	case "time":
		if name == "NewTicker" || name == "NewTimer" {
			return "time." + name
		}
	}
	if analysis.PathSuffixMatch(analysis.PkgPathOf(fn), "internal/storagefault") {
		switch name {
		case "Open", "Create", "OpenFile":
			return "storagefault." + name
		}
	}
	return ""
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// releaseName reports whether a method name discharges a resource. The
// transport uses unexported close/stop internally, so both cases count.
func releaseName(name string) bool {
	switch name {
	case "Close", "Stop", "Shutdown", "close", "stop", "shutdown":
		return true
	}
	return false
}

func buildFact(prog *analysis.Program) *fact {
	f := &fact{}
	f.closes = alias.Params(prog.Graph, func(fi *alias.FuncInfo) map[int]string {
		out := map[int]string{}
		ast.Inspect(fi.Node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeOf(fi.Info, call)
			if fn == nil || !releaseName(fn.Name()) {
				return true
			}
			args := alias.LinearArgs(fi.Info, call)
			if len(args) > 0 && args[0] != nil {
				if idx := fi.ParamOf(args[0]); idx >= 0 {
					out[idx] = "closes it"
				}
			}
			return true
		})
		return out
	})
	f.getters = alias.ReturnsTracked(prog.Graph, func(info *types.Info, e ast.Expr) string {
		if call, ok := e.(*ast.CallExpr); ok {
			return acquireTag(info, call)
		}
		return ""
	})
	return f
}

func run(pass *analysis.Pass) error {
	f := pass.Prog.Fact(pass.Analyzer, func(prog *analysis.Program) any {
		return buildFact(prog)
	}).(*fact)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroutines(pass, fd)
			checkFunc(pass, fd, f)
		}
	}
	return nil
}

// checkGoroutines flags spawned goroutines with no termination path: a
// condition-less for loop containing no return and no break cannot be
// stopped, which pins its captures (listener, conns) forever.
func checkGoroutines(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			loop, ok := x.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			terminates := false
			ast.Inspect(loop.Body, func(y ast.Node) bool {
				switch y := y.(type) {
				case *ast.FuncLit:
					return false // a nested goroutine's return is not ours
				case *ast.ReturnStmt:
					terminates = true
				case *ast.BranchStmt:
					if y.Tok == token.BREAK || y.Tok == token.GOTO {
						terminates = true
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(y.Fun).(*ast.Ident); ok && id.Name == "panic" {
						terminates = true
					}
				}
				return !terminates
			})
			if !terminates {
				pass.Reportf(g.Pos(), "spawned goroutine has no termination path: its for loop contains no return or break, so it cannot be stopped (select on a quit channel)")
			}
			return true
		})
		return true
	})
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, f *fact) {
	info := pass.TypesInfo

	seedOf := func(e ast.Expr) *alias.Seed {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if tag := acquireTag(info, call); tag != "" {
			return &alias.Seed{Expr: e, Tag: tag}
		}
		if fn := analysis.CalleeOf(info, call); fn != nil {
			if why, isGetter := f.getters[fn]; isGetter {
				return &alias.Seed{Expr: e, Tag: fn.Name() + " (returns a " + why + " resource)"}
			}
		}
		return nil
	}
	tr := alias.Track(info, fd.Body, nil, seedOf)
	if len(tr.Seeds) == 0 {
		return
	}

	// errPair maps each seed to the object bound to its paired error result
	// (c, err := net.Dial(...)), so error exits don't count as leaks.
	errPair := make(map[*alias.Seed]types.Object)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		for _, s := range tr.Seeds {
			if s.Expr != ast.Unparen(as.Rhs[0]) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && id.Name != "_" {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					errPair[s] = obj
				}
			}
		}
		return true
	})

	// errRegions are branch bodies guarded by a nil-check of a seed's paired
	// error: inside `if err != nil { ... }` (or the else of `err == nil`) the
	// acquire failed, so even a bare return or continue owes nothing.
	type region struct {
		s        *alias.Seed
		pos, end token.Pos
	}
	var errRegions []region
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		var id *ast.Ident
		if isNilIdent(be.Y) {
			id, _ = ast.Unparen(be.X).(*ast.Ident)
		} else if isNilIdent(be.X) {
			id, _ = ast.Unparen(be.Y).(*ast.Ident)
		}
		if id == nil {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for s, errObj := range errPair {
			if errObj != obj {
				continue
			}
			if be.Op == token.NEQ {
				errRegions = append(errRegions, region{s, ifs.Body.Pos(), ifs.Body.End()})
			} else if ifs.Else != nil {
				errRegions = append(errRegions, region{s, ifs.Else.Pos(), ifs.Else.End()})
			}
		}
		return true
	})

	type events struct {
		acquired map[*alias.Seed]bool
		released map[*alias.Seed]bool // Close/Stop, closes-callee, or error exit
		deferRel map[*alias.Seed]bool
		transfer map[*alias.Seed]bool // return / store / goroutine / closure
	}

	releasesIn := func(n ast.Node, emit func(s *alias.Seed)) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeOf(info, call)
			args := alias.LinearArgs(info, call)
			if fn != nil && releaseName(fn.Name()) && len(args) > 0 && args[0] != nil {
				for _, s := range tr.ExprSeeds(args[0]) {
					emit(s)
				}
				return true
			}
			for _, callee := range pass.Prog.Graph.CalleesAt(call) {
				for j, arg := range args {
					if arg == nil {
						continue
					}
					if f.closes.Has(callee.Func, j) != nil {
						for _, s := range tr.ExprSeeds(arg) {
							emit(s)
						}
					}
				}
			}
			return true
		})
	}

	// errExits finds uses of a seed's paired error outside a nil-comparison
	// and outside an assignment LHS: returning or reporting the error means
	// the acquire failed on this path and there is nothing to close.
	errExits := func(n ast.Node, emit func(s *alias.Seed)) {
		if len(errPair) == 0 {
			return
		}
		skip := make(map[*ast.Ident]bool)
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						skip[id] = true
					}
					if id, ok := ast.Unparen(x.Y).(*ast.Ident); ok {
						skip[id] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
			return true
		})
		ast.Inspect(n, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok || skip[id] {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			for s, errObj := range errPair {
				if errObj == obj {
					emit(s)
				}
			}
			return true
		})
	}

	transfersIn := func(n ast.Node, emit func(s *alias.Seed)) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				for _, s := range tr.ExprSeeds(r) {
					emit(s)
				}
			}
		case *ast.GoStmt:
			// Anything a goroutine sees — argument or capture — is its to
			// release; serve.go's per-conn goroutines defer c.Close().
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						for _, s := range tr.SeedsOf(obj) {
							emit(s)
						}
					}
				}
				return true
			})
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					long := false
					switch l := ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr:
						long = true
					case *ast.IndexExpr:
						long = true
					case *ast.Ident:
						if v, ok := info.Uses[l].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
							long = true
						}
					case *ast.StarExpr:
						_ = l
						long = true
					}
					if !long {
						continue
					}
					var rhs ast.Expr
					if len(x.Rhs) == 1 {
						rhs = x.Rhs[0]
					} else if i < len(x.Rhs) {
						rhs = x.Rhs[i]
					}
					if rhs == nil {
						continue
					}
					for _, s := range tr.ExprSeeds(rhs) {
						emit(s)
					}
				}
			case *ast.SendStmt:
				for _, s := range tr.ExprSeeds(x.Value) {
					emit(s)
				}
			case *ast.CompositeLit:
				for _, elt := range x.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					for _, s := range tr.ExprSeeds(v) {
						emit(s)
					}
				}
			case *ast.FuncLit:
				// A closure capturing the resource may close it later
				// (handler, sync.Once body); treat capture as hand-off.
				ast.Inspect(x.Body, func(y ast.Node) bool {
					if id, ok := y.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							for _, s := range tr.SeedsOf(obj) {
								emit(s)
							}
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}

	evOf := func(n ast.Node) *events {
		ev := &events{
			acquired: map[*alias.Seed]bool{},
			released: map[*alias.Seed]bool{},
			deferRel: map[*alias.Seed]bool{},
			transfer: map[*alias.Seed]bool{},
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if e, ok := x.(ast.Expr); ok {
				for _, s := range tr.Seeds {
					if s.Expr == e {
						ev.acquired[s] = true
					}
				}
			}
			return true
		})
		if def, isDefer := n.(*ast.DeferStmt); isDefer {
			releasesIn(def, func(s *alias.Seed) { ev.deferRel[s] = true })
			return ev
		}
		releasesIn(n, func(s *alias.Seed) { ev.released[s] = true })
		errExits(n, func(s *alias.Seed) { ev.released[s] = true })
		transfersIn(n, func(s *alias.Seed) { ev.transfer[s] = true })
		for _, r := range errRegions {
			if n.Pos() >= r.pos && n.End() <= r.end {
				ev.released[r.s] = true
			}
		}
		return ev
	}

	g := pass.Prog.CFG(fd)
	post := g.Postorder()
	evmap := make(map[*cfg.Block][]*events)
	for _, b := range post {
		evs := make([]*events, len(b.Nodes))
		for i, n := range b.Nodes {
			evs[i] = evOf(n)
		}
		evmap[b] = evs
	}

	// Must-analysis: a resource still Owed at exit leaks on some path.
	apply := func(st alias.Obligations, ev *events) {
		for s := range ev.acquired {
			st[s] = alias.Owed
		}
		for _, released := range []map[*alias.Seed]bool{ev.deferRel, ev.released, ev.transfer} {
			for s := range released {
				st[s] = alias.Released
			}
		}
	}
	must := cfg.Forward(g, alias.ObligationLattice, alias.Obligations{}, func(b *cfg.Block, in alias.Obligations) alias.Obligations {
		st := maps.Clone(in)
		for _, ev := range evmap[b] {
			apply(st, ev)
		}
		return st
	})

	// Witness pass: the first return a still-owed resource escapes through.
	leakAt := make(map[*alias.Seed]token.Position)
	for _, b := range post {
		st := maps.Clone(must.In[b])
		for i, n := range b.Nodes {
			apply(st, evmap[b][i])
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, s := range tr.Seeds {
					if st[s] != alias.Owed {
						continue
					}
					p := pass.Fset.Position(ret.Pos())
					if cur, ok := leakAt[s]; !ok || p.Line < cur.Line {
						leakAt[s] = p
					}
				}
			}
		}
	}
	for _, s := range tr.Seeds {
		if must.Out[g.Exit][s] != alias.Owed {
			continue
		}
		if p, ok := leakAt[s]; ok {
			pass.Reportf(s.Expr.Pos(), "resource from %s is not closed on every path: it leaks at the return on line %d (close it, defer the close, or hand it off)", s.Tag, p.Line)
		} else {
			pass.Reportf(s.Expr.Pos(), "resource from %s is not closed on every path to function end (close it, defer the close, or hand it off)", s.Tag)
		}
	}
}
