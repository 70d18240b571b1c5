// Package poolsafe checks the lifecycle of pooled scratch objects: a value
// obtained from a sync.Pool (directly, or through a typed getter like the
// codec's getFrameBuf) must be returned to the pool on every CFG exit path,
// must never be used after it has been Put, and must never escape into a
// long-lived structure.
//
// This statically pins the single-encode/immutable-frame contract: the wire
// codec hands out pooled buffers, encodes into them once, splices the raw
// bytes, and returns the buffer — a buffer that leaks out (stored into a
// struct, sent on a channel) or is touched after Put is a use-after-free in
// slow motion, corrupting a frame some other goroutine is concurrently
// encoding into.
//
// Ownership transfer is respected: returning the pooled object hands the
// Put obligation to the caller (that is how getFrameBuf itself is clean),
// and passing it to a callee that transitively Puts it (putFrameBuf)
// discharges the obligation, with the callee chain named in diagnostics.
package poolsafe

import (
	"go/ast"
	"go/types"
	"maps"

	"repro/internal/analysis"
	"repro/internal/analysis/alias"
	"repro/internal/analysis/cfg"
)

// Analyzer is the poolsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "pooled objects must be Put on all exit paths, never used after Put, and never escape into long-lived structures",
	Run:  run,
}

type fact struct {
	// puts: linearized parameters that are transitively returned to a pool.
	puts *alias.Summary
	// getters: functions whose result is (transitively) a fresh pool object.
	getters map[*types.Func]string
}

func buildFact(prog *analysis.Program) *fact {
	f := &fact{}
	f.puts = alias.Params(prog.Graph, func(fi *alias.FuncInfo) map[int]string {
		out := map[int]string{}
		ast.Inspect(fi.Node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPoolMethod(fi.Info, call, "Put") {
				return true
			}
			args := alias.LinearArgs(fi.Info, call)
			if len(args) >= 2 && args[1] != nil {
				if idx := fi.ParamOf(args[1]); idx >= 0 {
					out[idx] = "returned to the pool"
				}
			}
			return true
		})
		return out
	})
	f.getters = alias.ReturnsTracked(prog.Graph, func(info *types.Info, e ast.Expr) string {
		if call, ok := e.(*ast.CallExpr); ok && isPoolMethod(info, call, "Get") {
			return "sync.Pool.Get"
		}
		return ""
	})
	return f
}

func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := analysis.CalleeOf(info, call)
	return fn != nil && fn.Name() == name &&
		analysis.PkgPathOf(fn) == "sync" && analysis.RecvTypeName(fn) == "Pool"
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
			checkFunc(pass, fd, f)
		}
	}
	return nil
}

// seedName renders a seed origin for diagnostics.
func seedName(s *alias.Seed) string { return s.Tag }

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, f *fact) {
	info := pass.TypesInfo

	seedOf := func(e ast.Expr) *alias.Seed {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if isPoolMethod(info, call, "Get") {
			return &alias.Seed{Expr: e, Tag: "sync.Pool.Get"}
		}
		if fn := analysis.CalleeOf(info, call); fn != nil {
			if _, isGetter := f.getters[fn]; isGetter {
				return &alias.Seed{Expr: e, Tag: fn.Name()}
			}
		}
		return nil
	}
	tr := alias.Track(info, fd.Body, nil, seedOf)
	if len(tr.Seeds) == 0 {
		return
	}

	// The nil-from-pool idiom: a pool with no New func hands back a nil
	// interface when empty, so getters read
	// `if v := pool.Get(); v != nil { return v.(T) }; return nil`.
	// The path that releases nothing is exactly the path where the pool gave
	// nothing back, so a seed that is nil-compared anywhere in the function
	// is exempt from the Put-on-every-path requirement (use-after-Put and
	// escape checks still apply to it).
	nilChecked := map[*alias.Seed]bool{}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		be, ok := x.(*ast.BinaryExpr)
		if !ok || (be.Op.String() != "==" && be.Op.String() != "!=") {
			return true
		}
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if id, ok := ast.Unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" && info.Uses[id] != nil && info.Uses[id].Pkg() == nil {
				for _, s := range tr.ExprSeeds(pair[0]) {
					nilChecked[s] = true
				}
			}
		}
		return true
	})

	// Classify per-CFG-node events for each seed.
	type events struct {
		acquired map[*alias.Seed]bool           // seed's Get expression is in this node
		put      map[*alias.Seed]*alias.Witness // non-deferred Put (nil Witness = direct sync.Pool.Put)
		deferPut map[*alias.Seed]bool           // Put scheduled by a defer in this node
		returned map[*alias.Seed]bool           // ownership transferred to the caller
		escaped  map[*alias.Seed]bool           // reported separately; discharges the obligation
	}

	putsIn := func(n ast.Node, emit func(s *alias.Seed, call *ast.CallExpr, w *alias.Witness)) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			args := alias.LinearArgs(info, call)
			if isPoolMethod(info, call, "Put") && len(args) >= 2 && args[1] != nil {
				for _, s := range tr.ExprSeeds(args[1]) {
					emit(s, call, nil)
				}
				return true
			}
			for _, callee := range pass.Prog.Graph.CalleesAt(call) {
				for j, arg := range args {
					if arg == nil {
						continue
					}
					if w := f.puts.Has(callee.Func, j); w != nil {
						for _, s := range tr.ExprSeeds(arg) {
							emit(s, call, &alias.Witness{Why: callee.Func.Name(), Chain: w.Chain})
						}
					}
				}
			}
			return true
		})
	}

	evOf := func(n ast.Node) *events {
		ev := &events{
			acquired: map[*alias.Seed]bool{},
			put:      map[*alias.Seed]*alias.Witness{},
			deferPut: map[*alias.Seed]bool{},
			returned: map[*alias.Seed]bool{},
			escaped:  map[*alias.Seed]bool{},
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
			putsIn(def, func(s *alias.Seed, _ *ast.CallExpr, _ *alias.Witness) { ev.deferPut[s] = true })
			return ev
		}
		putsIn(n, func(s *alias.Seed, _ *ast.CallExpr, w *alias.Witness) { ev.put[s] = orDirect(w) })
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				for _, s := range tr.ExprSeeds(r) {
					ev.returned[s] = true
				}
			}
		}
		for s := range escapesIn(pass, tr, n) {
			ev.escaped[s] = true
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

	// Escapes are reported flow-insensitively: a pooled object stored into a
	// field, global, channel, or composite literal outlives the frame no
	// matter where the store sits.
	for _, b := range post {
		for _, n := range b.Nodes {
			reportEscapes(pass, tr, n)
		}
	}

	// Must-analysis for "Put on all exit paths".
	must := cfg.Forward(g, alias.ObligationLattice, alias.Obligations{}, func(b *cfg.Block, in alias.Obligations) alias.Obligations {
		st := maps.Clone(in)
		for _, ev := range evmap[b] {
			for s := range ev.acquired {
				st[s] = alias.Owed
			}
			for _, released := range []map[*alias.Seed]bool{ev.deferPut, ev.returned, ev.escaped} {
				for s := range released {
					st[s] = alias.Released
				}
			}
			for s := range ev.put {
				st[s] = alias.Released
			}
		}
		return st
	})
	for _, s := range tr.Seeds {
		if must.Out[g.Exit][s] == alias.Owed && !nilChecked[s] {
			pass.Reportf(s.Expr.Pos(), "pooled object from %s is not returned to its pool on every path to return: add a Put (or defer it) on the missing paths", seedName(s))
		}
	}

	// May-analysis for use-after-Put: the set of seeds whose non-deferred Put
	// may already have run. Acquire kills (loop re-acquisition is a fresh
	// object); uses are checked before the node's own Put applies.
	mayIn := cfg.Forward(g, cfg.Union[*alias.Seed](), map[*alias.Seed]bool{}, func(b *cfg.Block, in map[*alias.Seed]bool) map[*alias.Seed]bool {
		o := maps.Clone(in)
		for _, ev := range evmap[b] {
			for s := range ev.acquired {
				delete(o, s)
			}
			for s := range ev.put {
				o[s] = true
			}
		}
		return o
	}).In
	for _, b := range post {
		live := map[*alias.Seed]bool{}
		for k := range mayIn[b] {
			live[k] = true
		}
		for i, n := range b.Nodes {
			ev := evmap[b][i]
			for s := range ev.acquired {
				delete(live, s)
			}
			if _, isDefer := n.(*ast.DeferStmt); !isDefer {
				reportUses(pass, tr, n, live)
			}
			for s := range ev.put {
				live[s] = true
			}
		}
	}
}

func orDirect(w *alias.Witness) *alias.Witness {
	if w == nil {
		return &alias.Witness{Why: "sync.Pool.Put"}
	}
	return w
}

// reportUses flags identifiers aliasing an already-Put seed inside n.
func reportUses(pass *analysis.Pass, tr *alias.Tracker, n ast.Node, put map[*alias.Seed]bool) {
	if len(put) == 0 {
		return
	}
	info := pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for _, s := range tr.SeedsOf(obj) {
			if put[s] {
				pass.Reportf(id.Pos(), "%s is used after it was returned to the pool (%s): another goroutine may already own this object", id.Name, seedName(s))
				return false
			}
		}
		return true
	})
}

// escapesIn finds seeds escaping in n without reporting (for obligation
// accounting); reportEscapes emits the diagnostics.
func escapesIn(pass *analysis.Pass, tr *alias.Tracker, n ast.Node) map[*alias.Seed]bool {
	out := map[*alias.Seed]bool{}
	forEachEscape(pass, tr, n, func(s *alias.Seed, _ ast.Node, _ string) { out[s] = true })
	return out
}

func reportEscapes(pass *analysis.Pass, tr *alias.Tracker, n ast.Node) {
	forEachEscape(pass, tr, n, func(s *alias.Seed, site ast.Node, how string) {
		pass.Reportf(site.Pos(), "pooled object from %s escapes into a long-lived structure (%s): a frame returned to the pool must not be reachable from outside the call", seedName(s), how)
	})
}

// forEachEscape detects stores of a pooled value somewhere that outlives the
// function frame: a field or global assignment, a channel send, or placement
// in a composite literal. Returning the value is NOT an escape (ownership
// transfers); locals and parameters are not long-lived.
func forEachEscape(pass *analysis.Pass, tr *alias.Tracker, n ast.Node, emit func(s *alias.Seed, site ast.Node, how string)) {
	info := pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				how := ""
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[l]; ok && sel.Obj() != nil {
						how = "stored into field " + sel.Obj().Name()
					}
				case *ast.IndexExpr:
					if base := ast.Unparen(l.X); base != nil {
						if bsel, ok := base.(*ast.SelectorExpr); ok {
							if sel, ok := info.Selections[bsel]; ok && sel.Obj() != nil {
								how = "stored into field " + sel.Obj().Name()
							}
						}
					}
				case *ast.Ident:
					if v, ok := info.Uses[l].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						how = "stored into package variable " + v.Name()
					}
				}
				if how == "" {
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
					emit(s, x, how)
				}
			}
		case *ast.SendStmt:
			for _, s := range tr.ExprSeeds(x.Value) {
				emit(s, x, "sent on a channel")
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				for _, s := range tr.ExprSeeds(v) {
					emit(s, elt, "placed in a composite literal")
				}
			}
		}
		return true
	})
}
