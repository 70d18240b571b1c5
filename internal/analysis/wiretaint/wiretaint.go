// Package wiretaint tracks values decoded off the wire to the allocation,
// slicing, and filesystem operations they reach, and demands a validation
// step in between. A length prefix, node count, offset, or path in a wire
// message is attacker-controlled: using it to size a make, bound a slice,
// or name a file without a bounds/Clean-style check lets a hostile peer
// allocate unbounded memory, panic the server, or escape the sync root.
//
// Taint sources: any field read from a struct defined in a package whose
// import path ends in internal/wire (the codec layer), and any function
// parameter that some call site — resolved through the program call graph,
// including CHA interface dispatch — feeds a tainted argument. Parameter
// taint is a program-wide fixpoint, so a helper three calls away from the
// decoder is still checked. len(x) of a tainted value is NOT tainted: a
// decoded buffer's actual length is ground truth, unlike the length the
// peer claimed.
//
// Sinks:
//   - make(T, n) / make(T, n, c) with a tainted size;
//   - slice or index expressions on slices, arrays, and strings with a
//     tainted bound (map indexing is exempt — maps cannot over-allocate or
//     panic on a hostile key);
//   - path arguments to filesystem operations: the os file functions and
//     methods named like Open/Create/Remove/Rename/WriteFile on *FS types
//     (e.g. the vfs DirFS).
//
// Sanitizers (flow-insensitive, per function): a comparison mentioning the
// value in any if/for condition, or passing it to (or calling a method on
// its receiver named) Valid*/Check*/Clean*/Clamp*-style functions. Calling
// a Validate-style method on a wire struct sanitizes all of that struct
// type's fields for the rest of the function. Flow-insensitivity means a
// check placed after the sink still counts — the analyzer trades that
// (unlikely) miss for zero false positives on guard-then-use code.
package wiretaint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// Analyzer is the wiretaint checker.
var Analyzer = &analysis.Analyzer{
	Name: "wiretaint",
	Doc:  "wire-decoded lengths, counts, offsets, and paths must be validated before allocation, slicing, or filesystem use",
	Run:  run,
}

// WirePathSuffix identifies the codec package whose struct fields are
// taint sources.
const WirePathSuffix = "internal/wire"

// taintFact is the program-wide parameter-taint summary: for each function,
// which parameter indices receive wire-tainted arguments from some caller,
// with a human-readable origin chain for the diagnostic.
type taintFact struct {
	params map[*types.Func]map[int]string
}

func buildFact(prog *analysis.Program) *taintFact {
	fact := &taintFact{params: make(map[*types.Func]map[int]string)}
	// A function's taint is written by its callers: callers are the
	// dependencies, and a change re-queues the callees.
	nodes := prog.Graph.Nodes()
	callers := make(map[*callgraph.Node][]*callgraph.Node)
	for _, n := range nodes {
		for _, c := range n.Callees() {
			callers[c] = append(callers[c], n)
		}
	}
	cfg.Solve(nodes, func(n *callgraph.Node) []*callgraph.Node { return callers[n] }, func(n *callgraph.Node) bool {
		if n.Decl == nil || n.Decl.Body == nil || n.Src == nil {
			return false
		}
		info := n.Src.Info
		tainted, sanitized := funcTaint(info, n.Decl, fact.params[n.Func])
		caller := n.Func.Name()
		changed := false
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range calleesOf(prog.Graph, info, call) {
				if callee.Decl == nil || callee.Decl.Body == nil {
					continue
				}
				sig, ok := callee.Func.Type().(*types.Signature)
				if !ok {
					continue
				}
				for i, arg := range call.Args {
					if i >= sig.Params().Len() {
						break // variadic tail: index i is not a distinct param
					}
					if !taintedExpr(info, arg, tainted, sanitized) {
						continue
					}
					m := fact.params[callee.Func]
					if m == nil {
						m = make(map[int]string)
						fact.params[callee.Func] = m
					}
					if _, seen := m[i]; !seen {
						origin := caller
						// Extend the chain when the argument's taint
						// itself arrived via one of our parameters.
						if from := paramOrigin(info, arg, n.Func, fact.params[n.Func]); from != "" {
							origin = from + " -> " + caller
						}
						m[i] = origin
						changed = true
					}
				}
			}
			return true
		})
		return changed
	})
	return fact
}

// calleesOf resolves a call site to graph nodes: the static callee plus any
// CHA interface-dispatch candidates.
func calleesOf(g *callgraph.Graph, info *types.Info, call *ast.CallExpr) []*callgraph.Node {
	var out []*callgraph.Node
	if fn := analysis.CalleeOf(info, call); fn != nil {
		if n := g.Node(fn); n != nil {
			out = append(out, n)
		}
	}
	out = append(out, g.CalleesAt(call)...)
	return out
}

// paramOrigin reports the origin chain when e's taint stems from one of
// the enclosing function fn's own tainted parameters.
func paramOrigin(info *types.Info, e ast.Expr, fn *types.Func, params map[int]string) string {
	if fn == nil || len(params) == 0 {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	origin := ""
	ast.Inspect(e, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || origin != "" {
			return origin == ""
		}
		obj := info.Uses[id]
		for i, chain := range params {
			if i < sig.Params().Len() && sig.Params().At(i) == obj {
				origin = chain
			}
		}
		return origin == ""
	})
	return origin
}

func run(pass *analysis.Pass) error {
	fact := pass.Prog.Fact(pass.Analyzer, func(prog *analysis.Program) any {
		return buildFact(prog)
	}).(*taintFact)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, fact)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, fact *taintFact) {
	info := pass.TypesInfo
	var fn *types.Func
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		fn = obj
	}
	params := fact.params[fn]
	tainted, sanitized := funcTaint(info, fd, params)
	via := func(e ast.Expr) string {
		if origin := paramOrigin(info, e, fn, params); origin != "" {
			return " [wire value flows in via " + origin + " -> " + fn.Name() + "]"
		}
		return ""
	}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			checkCall(pass, x, tainted, sanitized, via)
		case *ast.SliceExpr:
			if !sliceable(info, x.X) {
				return true
			}
			for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
				if b != nil && !boundedExpr(b) && taintedExpr(info, b, tainted, sanitized) {
					pass.Reportf(b.Pos(), "wire-derived value %s used as a slice bound without a bounds check: a hostile peer can panic this function%s", analysis.ExprString(b), via(b))
				}
			}
		case *ast.IndexExpr:
			if sliceable(info, x.X) && !boundedExpr(x.Index) && taintedExpr(info, x.Index, tainted, sanitized) {
				pass.Reportf(x.Index.Pos(), "wire-derived value %s used as an index without a bounds check: a hostile peer can panic this function%s", analysis.ExprString(x.Index), via(x.Index))
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, tainted, sanitized map[types.Object]bool, via func(ast.Expr) string) {
	info := pass.TypesInfo
	// make with a tainted size or capacity.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(info.Uses[id]) {
		for _, sz := range call.Args[1:] {
			if taintedExpr(info, sz, tainted, sanitized) {
				pass.Reportf(sz.Pos(), "wire-derived length %s used to size an allocation without a bounds check: a hostile peer controls this allocation%s", analysis.ExprString(sz), via(sz))
			}
		}
		return
	}
	// Filesystem operations with a tainted path.
	fn := analysis.CalleeOf(info, call)
	if fn == nil || !isFSOp(fn) {
		return
	}
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || !isStringType(tv.Type) {
			continue
		}
		if taintedExpr(info, arg, tainted, sanitized) {
			pass.Reportf(arg.Pos(), "wire-derived path %s passed to %s without validation: a hostile peer can reach outside the sync root (filepath.Clean + IsLocal it first)%s", analysis.ExprString(arg), fn.Name(), via(arg))
		}
	}
}

// boundedExpr recognizes index/bound expressions that are intrinsically
// bounded regardless of taint: a modulo or a bitmask AND (the stripe-index
// idiom h % n / h & (n-1)).
func boundedExpr(e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op.String() {
	case "%", "&":
		return true
	}
	return false
}

// funcTaint computes the function's tainted and sanitized object sets.
// Objects are field *types.Var for wire-struct field reads (global per
// field, which conflates distinct instances of the same message type — an
// accepted imprecision) and local *types.Var for idents.
func funcTaint(info *types.Info, fd *ast.FuncDecl, params map[int]string) (tainted, sanitized map[types.Object]bool) {
	tainted = make(map[types.Object]bool)
	sanitized = make(map[types.Object]bool)

	// Seed: parameters the program-wide fixpoint marked tainted.
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok && len(params) > 0 {
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := range params {
				if i < sig.Params().Len() {
					tainted[sig.Params().At(i)] = true
				}
			}
		}
	}

	// Sanitizers are independent of the taint closure; collect them first.
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.IfStmt:
			markComparisons(info, x.Cond, sanitized)
		case *ast.ForStmt:
			if x.Cond != nil {
				markComparisons(info, x.Cond, sanitized)
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				markObjects(info, x.Tag, sanitized)
			}
			markComparisons(info, x, sanitized)
		case *ast.CallExpr:
			markValidationCall(info, x, sanitized)
		}
		return true
	})

	// Taint closure over assignments (flow-insensitive): an assignment
	// depends on the assignments to every local its RHS mentions.
	type assign struct {
		lhs types.Object
		rhs ast.Expr
	}
	var assigns []assign
	writers := make(map[types.Object][]assign)
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				a := assign{obj, rhs}
				assigns = append(assigns, a)
				writers[obj] = append(writers[obj], a)
			}
		}
		return true
	})
	cfg.Solve(assigns, func(a assign) []assign {
		var deps []assign
		ast.Inspect(a.rhs, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				deps = append(deps, writers[info.Uses[id]]...)
			}
			return true
		})
		return deps
	}, func(a assign) bool {
		if tainted[a.lhs] || !taintedExpr(info, a.rhs, tainted, sanitized) {
			return false
		}
		tainted[a.lhs] = true
		return true
	})
	return tainted, sanitized
}

// taintedExpr reports whether e mentions a tainted, unsanitized value: a
// wire-struct field read or a tainted object. Nested non-conversion calls
// are opaque (their results are not modeled), and len(x) launders taint.
func taintedExpr(info *types.Info, e ast.Expr, tainted, sanitized map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Conversions like int(d.Len) carry taint; calls do not.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true
			}
			return false
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil && isWireField(obj) && !sanitized[obj] {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && tainted[obj] && !sanitized[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isWireField reports whether obj is a struct field of a type defined in
// the wire codec package.
func isWireField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return false
	}
	return analysis.PathSuffixMatch(v.Pkg().Path(), WirePathSuffix)
}

// markComparisons records every object mentioned on either side of a
// comparison operator inside cond.
func markComparisons(info *types.Info, cond ast.Node, sanitized map[types.Object]bool) {
	ast.Inspect(cond, func(x ast.Node) bool {
		be, ok := x.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		// Only ordered comparisons bound a value's magnitude; == / != do
		// not (a huge length passes a != check just fine).
		switch be.Op.String() {
		case "<", "<=", ">", ">=":
			markObjects(info, be.X, sanitized)
			markObjects(info, be.Y, sanitized)
		}
		return true
	})
}

// markValidationCall sanitizes arguments to (and the receiver fields of)
// Valid*/Check*/Clean*/Clamp*-style calls.
func markValidationCall(info *types.Info, call *ast.CallExpr, sanitized map[types.Object]bool) {
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	l := strings.ToLower(name)
	ok := false
	for _, p := range []string{"valid", "check", "clean", "clamp", "sanitize"} {
		if strings.HasPrefix(l, p) {
			ok = true
		}
	}
	if !ok {
		return
	}
	for _, arg := range call.Args {
		markObjects(info, arg, sanitized)
	}
	// x.Validate() on a wire struct sanitizes all fields of that type.
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		markObjects(info, sel.X, sanitized)
		if tv, has := info.Types[sel.X]; has && tv.Type != nil {
			if _, pkgPath := analysis.NamedType(tv.Type); analysis.PathSuffixMatch(pkgPath, WirePathSuffix) {
				markWireFields(tv.Type, sanitized)
			}
		}
	}
}

func markWireFields(t types.Type, sanitized map[types.Object]bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		sanitized[st.Field(i)] = true
	}
}

func markObjects(info *types.Info, e ast.Node, sanitized map[types.Object]bool) {
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				sanitized[obj] = true
			}
		case *ast.SelectorExpr:
			if obj := info.Uses[x.Sel]; obj != nil {
				sanitized[obj] = true
			}
		}
		return true
	})
}

// sliceable reports whether e has slice, array, or string type (the sinks
// where a hostile bound panics or over-reads); maps are exempt.
func sliceable(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, isArr := t.Elem().Underlying().(*types.Array)
		return isArr
	case *types.Basic:
		return t.Info()&types.IsString != 0
	}
	return false
}

func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isFSOp reports whether fn names a filesystem operation taking a path.
func isFSOp(fn *types.Func) bool {
	pkg := analysis.PkgPathOf(fn)
	recv := analysis.RecvTypeName(fn)
	name := fn.Name()
	if pkg == "os" && recv == "" {
		switch name {
		case "Open", "Create", "OpenFile", "Remove", "RemoveAll", "Rename",
			"Mkdir", "MkdirAll", "Truncate", "ReadFile", "WriteFile", "Stat", "Lstat":
			return true
		}
	}
	// Methods on filesystem abstractions (vfs.DirFS and friends).
	if strings.HasSuffix(recv, "FS") {
		switch name {
		case "Open", "Create", "OpenFile", "Remove", "RemoveAll", "Rename",
			"Mkdir", "MkdirAll", "Truncate", "ReadFile", "WriteFile", "Stat", "Lstat":
			return true
		}
	}
	return false
}
