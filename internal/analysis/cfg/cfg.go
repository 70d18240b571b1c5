// Package cfg builds per-function control-flow graphs from go/ast, the
// flow-sensitive half of the deltavet engine. The graphs are intentionally
// simple: basic blocks hold statements (and the condition/tag expressions
// that gate branches) in source order, and edges follow Go's structured
// control flow — if/else, for, range, switch, type switch, select, labeled
// break/continue, goto, return, and panic. Analyzers walk the block node
// lists to classify events (an fsync, a rename, a WAL append) and solve
// dataflow problems over the edges with Forward and Backward, which run on
// the package's one fixpoint engine, Solve; see internal/analysis/crashsafe
// for the canonical client.
//
// Soundness notes: panic and runtime.Goexit terminate a path (edge to the
// synthetic exit block), so code after them is treated as unreachable.
// Function literals are NOT inlined — a FuncLit appears as an ordinary
// expression in its enclosing statement, and callers that care about its
// body build a separate graph for it. Defer bodies run at exit in reality;
// here a DeferStmt is an ordinary node in its source position, which is the
// useful reading for ordering checks (the deferred call is *scheduled*
// there) and a documented approximation for everything else.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is a basic block: a maximal straight-line sequence of statements
// with edges only at the end. Nodes holds statements and branch-gating
// expressions (if conditions, switch tags, range operands) in source order.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "body", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is one function's control-flow graph. Entry is where execution
// starts; Exit is a synthetic block every return/panic/fallthrough-off-the-
// end edge reaches, so "at function exit" checks have a single program
// point. Blocks is every block in creation (roughly source) order,
// including unreachable ones.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the CFG for a function body. A nil body (declaration without
// a definition) yields a graph whose entry connects straight to exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.g.Exit)
	b.patchGotos()
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// Postorder returns the blocks reachable from entry in DFS postorder
// (useful for forward dataflow: iterate the reverse of this slice).
func (g *Graph) Postorder() []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var out []*Block
	var visit func(*Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
		out = append(out, b)
	}
	visit(g.Entry)
	return out
}

// String renders the graph for debugging and tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s):", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

type breakTarget struct {
	label string
	block *Block // where break jumps
}

type continueTarget struct {
	label string
	block *Block // where continue jumps (loop head or post)
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g         *Graph
	cur       *Block
	breaks    []breakTarget
	continues []continueTarget
	labels    map[string]*Block
	gotos     []pendingGoto
	// pendingLabel is the label naming the *next* loop/switch/select, so
	// labeled break/continue resolve to it.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	// Blocks born after a return/break/goto/panic can never be entered (a
	// label starts a fresh block, so jump targets are never of this kind);
	// suppressing their out-edges keeps dead paths out of join points.
	if from.Kind == "unreachable" {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startUnreachable begins a fresh block with no predecessors: the code
// after a return, break, continue, goto, or panic.
func (b *builder) startUnreachable() {
	b.cur = b.newBlock("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than a labeled loop/switch consumes the pending
	// label as a plain goto target.
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.startUnreachable()
		}
	default:
		// Assign, Decl, Go, Defer, Send, IncDec, Empty: straight-line.
		b.add(s)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	// Start a fresh block so gotos have a clean target.
	blk := b.newBlock("label." + s.Label.Name)
	b.edge(b.cur, blk)
	b.cur = blk
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	b.labels[s.Label.Name] = blk
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.breaks) - 1; i >= 0; i-- {
			if label == "" || b.breaks[i].label == label {
				b.edge(b.cur, b.breaks[i].block)
				break
			}
		}
		b.startUnreachable()
	case "continue":
		for i := len(b.continues) - 1; i >= 0; i-- {
			if label == "" || b.continues[i].label == label {
				b.edge(b.cur, b.continues[i].block)
				break
			}
		}
		b.startUnreachable()
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		b.startUnreachable()
	case "fallthrough":
		// Handled by switchStmt via clause chaining; nothing to do here
		// (the edge to the next clause body is added there).
	}
}

func (b *builder) patchGotos() {
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			b.edge(g.from, t)
		}
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	condBlk := b.cur
	join := b.newBlock("if.join")

	then := b.newBlock("if.then")
	b.edge(condBlk, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, join)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(condBlk, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(condBlk, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	exit := b.newBlock("for.exit")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}

	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(head, exit)
	}
	// for {} with no cond: only break leaves the loop.

	b.breaks = append(b.breaks, breakTarget{label: label, block: exit})
	b.continues = append(b.continues, continueTarget{label: label, block: post})
	body := b.newBlock("for.body")
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, post)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	exit := b.newBlock("range.exit")
	b.edge(head, exit) // zero iterations

	b.breaks = append(b.breaks, breakTarget{label: label, block: exit})
	b.continues = append(b.continues, continueTarget{label: label, block: head})
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	join := b.newBlock("switch.join")
	b.breaks = append(b.breaks, breakTarget{label: label, block: join})

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock("case.body")
		b.edge(head, bodies[i])
	}
	hasDefault := false
	for _, c := range clauses {
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, c := range clauses {
		b.cur = bodies[i]
		for _, e := range c.List {
			b.add(e)
		}
		b.stmtList(c.Body)
		if fallsThrough(c.Body) && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
		} else {
			b.edge(b.cur, join)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.stmt(s.Assign)
	head := b.cur
	join := b.newBlock("typeswitch.join")
	b.breaks = append(b.breaks, breakTarget{label: label, block: join})

	hasDefault := false
	for _, raw := range s.Body.List {
		c := raw.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		body := b.newBlock("typecase.body")
		b.edge(head, body)
		b.cur = body
		b.stmtList(c.Body)
		b.edge(b.cur, join)
	}
	if !hasDefault {
		b.edge(head, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	// Only the comm statements are recorded, each in its own body block —
	// adding the whole SelectStmt to the head would duplicate every case
	// body there, and a must-analysis would then see a case's effects as
	// happening unconditionally before the branch. Analyzers that care
	// about the select as a blocking event (blockunderlock) walk the AST,
	// not the CFG.
	head := b.cur
	join := b.newBlock("select.join")
	b.breaks = append(b.breaks, breakTarget{label: label, block: join})

	for _, raw := range s.Body.List {
		c := raw.(*ast.CommClause)
		body := b.newBlock("comm.body")
		b.edge(head, body)
		b.cur = body
		if c.Comm != nil {
			b.stmt(c.Comm)
		}
		b.stmtList(c.Body)
		b.edge(b.cur, join)
	}
	if len(s.Body.List) == 0 {
		// select{} blocks forever.
		b.edge(head, b.g.Exit)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

// fallsThrough reports whether a case body's last statement is a
// fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// isTerminalCall reports whether an expression statement never returns:
// panic(...) or os.Exit/log.Fatal-style calls, matched syntactically (the
// builder has no type info by design — it runs before any is needed).
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		switch fn.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
			return true
		}
	}
	return false
}
