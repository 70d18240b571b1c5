// Package callgraph builds a type-informed call graph over a set of loaded
// packages, the interprocedural half of the deltavet engine. Resolution is
// CHA-style (class hierarchy analysis): static calls resolve to their one
// target, and a call through an interface method fans out to that method on
// every named type in the analyzed packages that implements the interface.
//
// Soundness limits (documented, deliberate — see DESIGN.md §12):
//
//   - Calls through function-typed values (fields, parameters, closures
//     passed around) are unresolved: no edge. Directive-style contracts
//     (e.g. the Locked-suffix convention) cover the project's uses.
//   - Interface implementations in *imported* (non-analyzed) packages are
//     not candidates; only source packages contribute CHA targets.
//   - A call inside a `go` statement or a function literal gets an edge
//     flagged InGo/InLit so lock-sensitive analyses can exclude it (the
//     goroutine or the literal's eventual caller runs it, not this frame).
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/cfg"
)

// Source is one analyzed package: the parsed files plus type information.
// It mirrors the loader's package shape without importing it (the analysis
// package imports callgraph, not the other way around).
type Source struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one function in the graph. Decl and Src are nil for functions
// without analyzed source (imported ones like os.Rename); such nodes exist
// so summaries can classify them by identity.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Src  *Source
	Out  []*Edge
}

// Edge is one call site resolved to one possible callee.
type Edge struct {
	Caller       *Node
	Callee       *Node
	Site         *ast.CallExpr
	ViaInterface bool // resolved by CHA over an interface method
	InLit        bool // site is inside a function literal of the caller
	InGo         bool // site is inside a go statement's subtree
}

// Graph is the whole-program call graph.
type Graph struct {
	nodes   map[*types.Func]*Node
	order   []*Node // insertion order: source nodes first, deterministic
	callees map[*ast.CallExpr][]*Node
}

// Build constructs the graph over the given packages.
func Build(srcs []*Source) *Graph {
	g := &Graph{
		nodes:   make(map[*types.Func]*Node),
		callees: make(map[*ast.CallExpr][]*Node),
	}
	// Pass 1: a node per source function declaration.
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.ensure(fn)
				n.Decl = fd
				n.Src = src
			}
		}
	}
	// CHA candidate set: every named, non-interface type declared in the
	// analyzed packages.
	var named []*types.Named
	for _, src := range srcs {
		scope := src.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) {
				named = append(named, nt)
			}
		}
	}
	// Pass 2: edges.
	for _, n := range g.order {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		w := &edgeWalker{g: g, caller: n, info: n.Src.Info, named: named}
		w.walk(n.Decl.Body, false, false)
	}
	return g
}

func (g *Graph) ensure(fn *types.Func) *Node {
	if n := g.nodes[fn]; n != nil {
		return n
	}
	n := &Node{Func: fn}
	g.nodes[fn] = n
	g.order = append(g.order, n)
	return n
}

// Node returns the graph node for fn, or nil if fn was never seen.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Nodes returns every node in deterministic order.
func (g *Graph) Nodes() []*Node { return g.order }

// Callees returns the callee of each of n's out-edges, in edge order: the
// dependencies of a callee-to-caller fixpoint.
func (n *Node) Callees() []*Node {
	out := make([]*Node, len(n.Out))
	for i, e := range n.Out {
		out[i] = e.Callee
	}
	return out
}

// CalleesAt returns the possible callees of a call site as resolved during
// Build: a single static target, or the CHA expansion of an interface
// method. Nil for unresolved sites (function values, builtins).
func (g *Graph) CalleesAt(call *ast.CallExpr) []*Node { return g.callees[call] }

type edgeWalker struct {
	g      *Graph
	caller *Node
	info   *types.Info
	named  []*types.Named
}

// walk visits n recording call edges, tracking whether the current subtree
// is inside a function literal or a go statement.
func (w *edgeWalker) walk(n ast.Node, inLit, inGo bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walk(n.Body, true, inGo)
			return false
		case *ast.GoStmt:
			w.walk(n.Call, inLit, true)
			return false
		case *ast.CallExpr:
			w.call(n, inLit, inGo)
		}
		return true
	})
}

func (w *edgeWalker) call(call *ast.CallExpr, inLit, inGo bool) {
	fn, viaIface, iface := resolve(w.info, call)
	if fn == nil {
		return
	}
	var targets []*types.Func
	if viaIface {
		targets = w.chaTargets(iface, fn.Name())
		if len(targets) == 0 {
			targets = []*types.Func{fn} // keep the abstract method as callee
		}
	} else {
		targets = []*types.Func{fn}
	}
	for _, t := range targets {
		callee := w.g.ensure(t)
		e := &Edge{
			Caller: w.caller, Callee: callee, Site: call,
			ViaInterface: viaIface, InLit: inLit, InGo: inGo,
		}
		w.caller.Out = append(w.caller.Out, e)
		w.g.callees[call] = append(w.g.callees[call], callee)
	}
}

// chaTargets finds the concrete methods name on every analyzed named type
// implementing iface, in deterministic order.
func (w *edgeWalker) chaTargets(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, nt := range w.named {
		ptr := types.NewPointer(nt)
		if !types.Implements(nt, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, false, nt.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// resolve finds the static callee of a call. For a call through an
// interface method it additionally returns the interface type so CHA can
// expand it.
func resolve(info *types.Info, call *ast.CallExpr) (fn *types.Func, viaIface bool, iface *types.Interface) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
		return fn, false, nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return nil, false, nil
			}
			if it, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return m, true, it
			}
			return m, false, nil
		}
		// Package-qualified function: pkg.Func.
		fn, _ = info.Uses[f.Sel].(*types.Func)
		return fn, false, nil
	}
	return nil, false, nil
}

// Witness explains why a transitive property holds for a function: Why is
// the direct reason at the end of the chain, Path the callee chain from the
// queried function down to (and including) the function it holds on
// directly. An empty Path means the property holds directly.
type Witness struct {
	Why  string
	Path []*types.Func
}

// Chain renders "a → b → c" style suffix for diagnostics, empty when the
// property is direct.
func (w *Witness) Chain() string {
	s := ""
	for i, fn := range w.Path {
		if i > 0 {
			s += " -> "
		}
		s += fn.Name()
	}
	return s
}

// Transitive computes, for every function in the graph, whether a property
// holds on it directly (direct returns a non-empty reason) or on any
// transitive callee, skipping edges for which skip returns true. The
// result maps each function with the property to a witness; functions
// without it are absent. Runs on cfg.Solve in insertion order, so cycles
// are handled and a property, once found, keeps its first witness.
func (g *Graph) Transitive(direct func(*Node) string, skip func(*Edge) bool) map[*types.Func]*Witness {
	out := make(map[*types.Func]*Witness)
	for _, n := range g.order {
		if why := direct(n); why != "" {
			out[n.Func] = &Witness{Why: why}
		}
	}
	cfg.Solve(g.order, (*Node).Callees, func(n *Node) bool {
		if out[n.Func] != nil {
			return false
		}
		for _, e := range n.Out {
			if skip != nil && skip(e) {
				continue
			}
			cw := out[e.Callee.Func]
			if cw == nil {
				continue
			}
			path := make([]*types.Func, 0, len(cw.Path)+1)
			path = append(path, e.Callee.Func)
			path = append(path, cw.Path...)
			out[n.Func] = &Witness{Why: cw.Why, Path: path}
			return true
		}
		return false
	})
	return out
}
