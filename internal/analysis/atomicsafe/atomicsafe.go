// Package atomicsafe checks the copy-on-write publication discipline the
// sharded server leans on: state shared through sync/atomic must only be
// touched atomically, and a struct published through an atomic.Pointer is
// frozen the moment it is published.
//
// The server's lock-free read paths (clientState.group, Server.journal,
// Server.degraded, Server.syncMeter) all follow the same convention: build a
// fresh value, mutate it while it is still private, publish it with Store or
// CompareAndSwap, and never touch it again — readers Load and treat the
// snapshot as immutable. Nothing in the type system enforces any of that; a
// mutation one line after the Store compiles fine and races only under
// production interleavings. This analyzer makes the convention checkable:
//
//  1. mixed access — a struct field passed to a sync/atomic function
//     (atomic.AddInt64(&s.n, 1)) anywhere in the program must never be read
//     or written plainly; the plain access races with the atomic ones.
//  2. publish-then-mutate — after p.Store(x) / p.Swap(x) /
//     p.CompareAndSwap(_, x) on an atomic.Pointer or atomic.Value, any
//     mutation reachable through x (field writes, map inserts, deletes, or
//     a call passing x to a function that mutates its parameter) on any
//     CFG path after the publish is reported. Flow-sensitive: mutating the
//     fresh value *before* the Store is exactly how copy-on-write works.
//  3. load-then-mutate — a value obtained from p.Load() is a shared
//     snapshot; mutating it (directly or via a mutating callee) is reported
//     regardless of position.
//  4. atomic-bearing copy — assigning a struct value that contains
//     sync/atomic fields copies the atomics out from under concurrent
//     users (`s := *shared`); use a pointer.
//
// Aliasing runs through internal/analysis/alias: locals that alias the
// published or loaded value are watched under any name, and "a callee
// mutates its parameter" is an interprocedural summary with a witness
// chain, so handing a loaded snapshot to a helper that mutates it is caught
// at the hand-off site.
package atomicsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/alias"
	"repro/internal/analysis/cfg"
)

// Analyzer is the atomicsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicsafe",
	Doc:  "fields accessed atomically must never be accessed plainly; values published via atomic.Pointer are immutable after Store (copy-on-write)",
	Run:  run,
}

// fact is the program-wide summary: fields accessed through sync/atomic
// functions (with one example position each), and which functions mutate
// which linearized parameter.
type fact struct {
	atomicFields map[*types.Var]token.Position
	mutates      *alias.Summary
}

func buildFact(prog *analysis.Program) *fact {
	f := &fact{atomicFields: make(map[*types.Var]token.Position)}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeOf(pkg.TypesInfo, call)
				if fn == nil || analysis.PkgPathOf(fn) != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				for _, arg := range call.Args {
					if fv := addrFieldOperand(pkg.TypesInfo, arg); fv != nil {
						if _, seen := f.atomicFields[fv]; !seen {
							f.atomicFields[fv] = pkg.Fset.Position(call.Pos())
						}
					}
				}
				return true
			})
		}
	}
	f.mutates = alias.Params(prog.Graph, func(fi *alias.FuncInfo) map[int]string {
		out := map[int]string{}
		forEachMutation(fi.Info, fi.Node.Decl.Body, func(base ast.Expr, _ ast.Node) {
			if idx := fi.ParamOf(base); idx >= 0 {
				out[idx] = "mutates its argument"
			}
		})
		return out
	})
	return f
}

// addrFieldOperand returns the struct field behind an `&x.f` argument, or
// nil when the argument is not an address-of-field expression.
func addrFieldOperand(info *types.Info, arg ast.Expr) *types.Var {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func run(pass *analysis.Pass) error {
	f := pass.Prog.Fact(pass.Analyzer, func(prog *analysis.Program) any {
		return buildFact(prog)
	}).(*fact)
	for _, file := range pass.Files {
		checkMixed(pass, file, f)
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPublish(pass, fd, f)
			checkCopies(pass, fd)
		}
	}
	return nil
}

// ---- mixed plain/atomic access ----

func checkMixed(pass *analysis.Pass, file *ast.File, f *fact) {
	if len(f.atomicFields) == 0 {
		return
	}
	// Selector nodes that ARE sanctioned atomic accesses: &x.f inside a
	// sync/atomic call argument.
	sanctioned := make(map[ast.Node]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(pass.TypesInfo, call)
		if fn == nil || analysis.PkgPathOf(fn) != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
				sanctioned[ast.Unparen(u.X)] = true
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sanctioned[sel] {
			return true
		}
		fv, ok := pass.TypesInfo.Selections[sel]
		if !ok {
			return true
		}
		v, ok := fv.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return true
		}
		if site, atomic := f.atomicFields[v]; atomic {
			pass.Reportf(sel.Pos(), "field %s is accessed atomically elsewhere (%s:%d); this plain access races with those atomic operations", v.Name(), shortFile(site), site.Line)
		}
		return true
	})
}

func shortFile(p token.Position) string {
	if i := strings.LastIndexByte(p.Filename, '/'); i >= 0 {
		return p.Filename[i+1:]
	}
	return p.Filename
}

// ---- publish-then-mutate / load-then-mutate ----

// publish is one Store/Swap/CompareAndSwap of an atomic.Pointer or Value.
type publish struct {
	call *ast.CallExpr
	via  string // "Store", "Swap", "CompareAndSwap"
	recv string // rendered receiver, e.g. "cs.group"
	seed *alias.Seed
}

func checkPublish(pass *analysis.Pass, fd *ast.FuncDecl, f *fact) {
	info := pass.TypesInfo

	// Scan for publish and load sites first.
	var pubs []*publish
	loadCalls := make(map[*ast.CallExpr]string) // call -> rendered receiver
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(info, call)
		if !isAtomicBoxMethod(fn) {
			return true
		}
		recv := receiverString(call)
		switch fn.Name() {
		case "Store", "Swap":
			if len(call.Args) >= 1 {
				pubs = append(pubs, &publish{call: call, via: fn.Name(), recv: recv})
			}
		case "CompareAndSwap":
			if len(call.Args) >= 2 {
				pubs = append(pubs, &publish{call: call, via: fn.Name(), recv: recv})
			}
		case "Load":
			loadCalls[call] = recv
		}
		return true
	})
	if len(pubs) == 0 && len(loadCalls) == 0 {
		return
	}

	// Seed the tracker: published roots as pre-tagged objects, loads as
	// expression seeds.
	seedObjs := make(map[types.Object]*alias.Seed)
	for _, p := range pubs {
		arg := p.call.Args[0]
		if p.via == "CompareAndSwap" {
			arg = p.call.Args[1]
		}
		root := rootIdentObj(info, arg)
		if root == nil {
			continue
		}
		s := &alias.Seed{Tag: "published:" + p.recv}
		if prev, ok := seedObjs[root]; ok {
			s = prev // one object published twice: share the seed
		}
		seedObjs[root] = s
		p.seed = s
	}
	loadSeeds := make(map[*alias.Seed]string)
	seedOf := func(e ast.Expr) *alias.Seed {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if recv, ok := loadCalls[call]; ok {
			s := &alias.Seed{Expr: e, Tag: "loaded:" + recv}
			loadSeeds[s] = recv
			return s
		}
		return nil
	}
	tr := alias.Track(info, fd.Body, seedObjs, seedOf)

	// Load-then-mutate: flow-insensitive — a loaded snapshot is shared from
	// birth, so any mutation through an alias is a race.
	forEachMutation(info, fd.Body, func(base ast.Expr, site ast.Node) {
		for _, s := range tr.ExprSeeds(base) {
			if recv, ok := loadSeeds[s]; ok {
				pass.Reportf(site.Pos(), "mutation of a value loaded from atomic pointer %s.Load(): loaded snapshots are shared with lock-free readers and must be treated as immutable (copy on write)", recv)
			}
		}
	})
	// Mutating callees fed a loaded value.
	forEachMutatingCall(pass, tr, f, fd, func(s *alias.Seed, call *ast.CallExpr, w *alias.Witness, calleeName string) {
		if recv, ok := loadSeeds[s]; ok {
			pass.Reportf(call.Pos(), "value loaded from %s.Load() is passed to %s, which mutates it%s: loaded snapshots are shared and must not be mutated", recv, calleeName, chainSuffix(w))
		}
	})

	if len(pubs) == 0 {
		return
	}

	// Publish-then-mutate: forward may-analysis over the CFG — the set of
	// publish seeds that may already have been stored at each point.
	g := pass.Prog.CFG(fd)
	post := g.Postorder()

	pubSeedAt := func(n ast.Node) []*alias.Seed {
		var out []*alias.Seed
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				for _, p := range pubs {
					if p.call == call && p.seed != nil {
						out = append(out, p.seed)
					}
				}
			}
			return true
		})
		return out
	}

	in := cfg.Forward(g, cfg.Union[*alias.Seed](), map[*alias.Seed]bool{}, func(b *cfg.Block, in map[*alias.Seed]bool) map[*alias.Seed]bool {
		o := maps.Clone(in)
		for _, n := range b.Nodes {
			for _, k := range pubSeedAt(n) {
				o[k] = true
			}
		}
		return o
	}).In

	// Report: replay each block; a mutation through a published seed that is
	// in the running set fires.
	describe := func(s *alias.Seed) string { return strings.TrimPrefix(s.Tag, "published:") }
	for _, b := range post {
		live := make(map[*alias.Seed]bool, len(in[b]))
		for k := range in[b] {
			live[k] = true
		}
		for _, n := range b.Nodes {
			forEachMutation(info, n, func(base ast.Expr, site ast.Node) {
				for _, s := range tr.ExprSeeds(base) {
					if live[s] {
						pass.Reportf(site.Pos(), "mutation after the value was published via %s.Store/CompareAndSwap: copy-on-write requires building a fresh value, publishing it, and never touching it again", describe(s))
					}
				}
			})
			forEachMutatingCallInNode(pass, tr, f, n, func(s *alias.Seed, call *ast.CallExpr, w *alias.Witness, calleeName string) {
				if live[s] {
					pass.Reportf(call.Pos(), "published value (%s) is passed to %s, which mutates it%s: values are immutable after Store", describe(s), calleeName, chainSuffix(w))
				}
			})
			for _, k := range pubSeedAt(n) {
				live[k] = true
			}
		}
	}
}

func chainSuffix(w *alias.Witness) string {
	if w == nil || len(w.Chain) == 0 {
		return ""
	}
	return " (via " + w.ChainString() + ")"
}

// forEachMutatingCall walks the whole body; forEachMutatingCallInNode one
// CFG node. Both report calls whose argument aliases a tracked seed and
// whose callee's matching parameter carries the mutates summary.
func forEachMutatingCall(pass *analysis.Pass, tr *alias.Tracker, f *fact, fd *ast.FuncDecl, emit func(*alias.Seed, *ast.CallExpr, *alias.Witness, string)) {
	forEachMutatingCallInNode(pass, tr, f, fd.Body, emit)
}

func forEachMutatingCallInNode(pass *analysis.Pass, tr *alias.Tracker, f *fact, n ast.Node, emit func(*alias.Seed, *ast.CallExpr, *alias.Witness, string)) {
	info := pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		args := alias.LinearArgs(info, call)
		for _, callee := range pass.Prog.Graph.CalleesAt(call) {
			for j, arg := range args {
				if arg == nil {
					continue
				}
				w := f.mutates.Has(callee.Func, j)
				if w == nil {
					continue
				}
				for _, s := range tr.ExprSeeds(arg) {
					emit(s, call, w, callee.Func.Name())
				}
			}
		}
		return true
	})
}

// forEachMutation finds direct mutations inside n: assignments and IncDec
// through a selector/index/deref chain, and delete() on a field map. emit
// receives the base expression the chain is rooted at.
func forEachMutation(info *types.Info, n ast.Node, emit func(base ast.Expr, site ast.Node)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if base := mutationBase(lhs); base != nil {
					emit(base, x)
				}
			}
		case *ast.IncDecStmt:
			if base := mutationBase(x.X); base != nil {
				emit(base, x)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				if base := mutationBase(x.Args[0]); base != nil {
					emit(base, x)
				}
				// Also the map expression itself when it is a plain ident:
				// delete(m, k) where m aliases the tracked value.
				if id, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok {
					emit(id, x)
				}
			}
		}
		return true
	})
}

// mutationBase unwraps an lvalue chain (x.f, x.f[k], *x, x[i]) to the base
// expression being mutated *through*. A bare identifier LHS is a rebind, not
// a mutation of the pointed-to value, so it returns nil for those.
func mutationBase(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return innermostBase(e.X)
	case *ast.IndexExpr:
		return innermostBase(e.X)
	case *ast.StarExpr:
		return innermostBase(e.X)
	}
	return nil
}

func innermostBase(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// rootIdentObj resolves the identifier object a published argument is rooted
// at (unwrapping & and conversions); nil for literals.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		o := info.Uses[x]
		if o == nil {
			o = info.Defs[x]
		}
		if o == nil || o.Pkg() == nil { // skip builtins: Store(nil)
			return nil
		}
		return o
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return rootIdentObj(info, x.X)
		}
	}
	return nil
}

// isAtomicBoxMethod reports whether fn is a method of sync/atomic's Pointer
// or Value — the two box types whose contents stay mutable after publication
// (scalar atomics return copies from Load, so they have no freeze contract).
func isAtomicBoxMethod(fn *types.Func) bool {
	if fn == nil || analysis.PkgPathOf(fn) != "sync/atomic" {
		return false
	}
	recv := analysis.RecvTypeName(fn)
	return recv == "Pointer" || recv == "Value"
}

// receiverString renders the method receiver ("cs.group") for diagnostics.
func receiverString(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "<atomic>"
	}
	return analysis.ExprString(sel.X)
}

// ---- atomic-bearing struct copies ----

func checkCopies(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			e := ast.Unparen(rhs)
			switch e.(type) {
			case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.Ident:
			default:
				continue // fresh composite literals and calls are fine
			}
			tv, ok := info.Types[e]
			if !ok {
				continue
			}
			if fld := atomicFieldIn(tv.Type, 0); fld != "" {
				pass.Reportf(rhs.Pos(), "copying this value copies atomic field %s by value; concurrent users of the original will not see the copy's operations (keep a pointer instead)", fld)
			}
		}
		return true
	})
}

// atomicFieldIn returns the path of a sync/atomic-typed field inside t
// (struct types only, 3 levels deep), or "".
func atomicFieldIn(t types.Type, depth int) string {
	if depth > 3 {
		return ""
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return "" // copying a pointer never copies the atomics behind it
	}
	if name, pkg := analysis.NamedType(t); pkg == "sync/atomic" && name != "" {
		// The value IS an atomic box; copying it is the defect itself.
		return name
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isPtr := f.Type().(*types.Pointer); isPtr {
			continue
		}
		if name, pkg := analysis.NamedType(f.Type()); pkg == "sync/atomic" && name != "" {
			return f.Name()
		}
		if sub := atomicFieldIn(f.Type(), depth+1); sub != "" {
			return f.Name() + "." + sub
		}
	}
	return ""
}
