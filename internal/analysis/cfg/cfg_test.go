package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses src (a file body) and returns the CFG of the named
// function.
func buildFunc(t *testing.T, src, name string) (*token.FileSet, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, New(fd.Body)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil
}

// callsInBlock returns the callee names (last selector or ident) of calls
// appearing in the block's nodes.
func callNames(b *Block) []string {
	var out []string
	for _, n := range b.Nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				out = append(out, fn.Name)
			case *ast.SelectorExpr:
				out = append(out, fn.Sel.Name)
			}
			return true
		})
	}
	return out
}

// mustPrecede reports whether on EVERY entry→(block containing a call to
// "target") path, a call to "required" occurs strictly earlier. This is the
// forward must-dataflow shape crashsafe runs; exercising it here proves the
// graph's edges support it.
func mustPrecede(g *Graph, required, target string) bool {
	// In[b] = true iff "required" has definitely happened on entry to b;
	// meet is AND over reachable predecessors.
	in := Forward(g, mustLattice, false, func(b *Block, done bool) bool {
		for _, n := range callNames(b) {
			if n == required {
				return true
			}
		}
		return done
	}).In
	for _, b := range g.Postorder() {
		cur := in[b]
		for _, n := range callNames(b) {
			if n == target && !cur {
				return false
			}
			if n == required {
				cur = true
			}
		}
	}
	return true
}

func TestStraightLine(t *testing.T) {
	_, g := buildFunc(t, `
func f() {
	a()
	b()
	c()
}`, "f")
	if !mustPrecede(g, "a", "c") {
		t.Errorf("a must precede c in straight-line code:\n%s", g)
	}
	if mustPrecede(g, "c", "a") {
		t.Errorf("c does not precede a")
	}
}

func TestIfBranchBreaksMust(t *testing.T) {
	_, g := buildFunc(t, `
func f(x bool) {
	if x {
		sync()
	}
	rename()
}`, "f")
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("sync only on one branch must not dominate rename:\n%s", g)
	}
}

func TestIfBothBranchesMust(t *testing.T) {
	_, g := buildFunc(t, `
func f(x bool) {
	if x {
		sync()
	} else {
		sync()
	}
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("sync on both branches must dominate rename:\n%s", g)
	}
}

func TestEarlyReturnGuard(t *testing.T) {
	_, g := buildFunc(t, `
func f() {
	if err := sync(); err != nil {
		return
	}
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("guarded early return keeps sync before rename:\n%s", g)
	}
}

func TestForLoopZeroIterations(t *testing.T) {
	_, g := buildFunc(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		sync()
	}
	rename()
}`, "f")
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("loop may run zero times; sync not guaranteed:\n%s", g)
	}
}

func TestRangeZeroIterations(t *testing.T) {
	_, g := buildFunc(t, `
func f(xs []int) {
	for range xs {
		sync()
	}
	rename()
}`, "f")
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("range may run zero times:\n%s", g)
	}
}

func TestInfiniteLoopOnlyBreak(t *testing.T) {
	_, g := buildFunc(t, `
func f() {
	for {
		if done() {
			sync()
			break
		}
	}
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("only exit from for{} passes through sync:\n%s", g)
	}
}

func TestSwitchDefaultCovers(t *testing.T) {
	_, g := buildFunc(t, `
func f(x int) {
	switch x {
	case 1:
		sync()
	default:
		sync()
	}
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("all switch arms sync:\n%s", g)
	}
}

func TestSwitchNoDefaultLeaks(t *testing.T) {
	_, g := buildFunc(t, `
func f(x int) {
	switch x {
	case 1:
		sync()
	}
	rename()
}`, "f")
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("switch without default has a fallthrough path:\n%s", g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	_, g := buildFunc(t, `
func f(x int) {
	switch x {
	case 1:
		sync()
		fallthrough
	case 2:
		rename()
	}
}`, "f")
	// rename is reachable directly via case 2 without sync.
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("case 2 reachable without sync:\n%s", g)
	}
}

func TestSelectClauses(t *testing.T) {
	_, g := buildFunc(t, `
func f(ch chan int) {
	select {
	case <-ch:
		sync()
	default:
		sync()
	}
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("both select arms sync:\n%s", g)
	}
}

func TestPanicTerminates(t *testing.T) {
	_, g := buildFunc(t, `
func f(x bool) {
	if !x {
		panic("no")
	}
	sync()
	rename()
}`, "f")
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("panic path never reaches rename:\n%s", g)
	}
}

func TestGotoEdge(t *testing.T) {
	_, g := buildFunc(t, `
func f(x bool) {
	if x {
		goto done
	}
	sync()
done:
	rename()
}`, "f")
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("goto skips sync:\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	_, g := buildFunc(t, `
func f(xs []int) {
outer:
	for range xs {
		for {
			sync()
			break outer
		}
	}
	rename()
}`, "f")
	// Path with zero outer iterations skips sync.
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("outer loop may run zero times:\n%s", g)
	}
}

func TestLabeledContinue(t *testing.T) {
	// Just exercise the builder; must not panic or drop edges.
	_, g := buildFunc(t, `
func f(xs, ys []int) {
outer:
	for range xs {
		for range ys {
			continue outer
		}
	}
}`, "f")
	if len(g.Blocks) == 0 {
		t.Fatal("no blocks")
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("nil body should connect entry to exit:\n%s", g)
	}
}

func TestExitReachable(t *testing.T) {
	_, g := buildFunc(t, `
func f(x int) int {
	for {
		switch x {
		case 1:
			return 1
		default:
			x--
		}
	}
}`, "f")
	found := false
	for _, b := range g.Postorder() {
		if b == g.Exit {
			found = true
		}
	}
	if !found {
		t.Errorf("exit unreachable:\n%s", g)
	}
	if !strings.Contains(g.String(), "exit") {
		t.Errorf("String() missing exit")
	}
}

func TestDeferInLoopStaysInBody(t *testing.T) {
	_, g := buildFunc(t, `
func f(xs []int) {
	for range xs {
		defer sync()
	}
	rename()
}`, "f")
	// Deferred calls run at function exit, after rename — and the loop may
	// run zero times. Neither the builder nor a must-analysis over the graph
	// may treat the defer as preceding rename.
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("deferred sync in a maybe-zero-iteration loop must not dominate rename:\n%s", g)
	}
	// The DeferStmt node must survive as a body node (analyzers key defer
	// semantics off the node itself, e.g. leakcheck's deferred Close).
	defers := 0
	for _, b := range g.Postorder() {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				defers++
			}
		}
	}
	if defers != 1 {
		t.Errorf("defer node count = %d, want 1:\n%s", defers, g)
	}
}

func TestSelectEmptyDefaultLeaks(t *testing.T) {
	_, g := buildFunc(t, `
func f(ch chan int) {
	select {
	case <-ch:
		sync()
	default:
	}
	rename()
}`, "f")
	// The nonblocking-poll shape: the empty default arm reaches rename
	// without sync.
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("empty select default bypasses sync:\n%s", g)
	}
}

func TestLabeledBreakOnlyExit(t *testing.T) {
	_, g := buildFunc(t, `
func f() {
	outer:
	for {
		for {
			sync()
			break outer
		}
	}
	rename()
}`, "f")
	// Both loops are infinite; the only path to rename is the labeled break,
	// which follows sync. The break edge must target the OUTER loop's exit.
	if !mustPrecede(g, "sync", "rename") {
		t.Errorf("labeled break is the only exit and follows sync:\n%s", g)
	}
}

func TestLabeledContinueSkipsRestOfOuterBody(t *testing.T) {
	_, g := buildFunc(t, `
func f(xs, ys []int) {
	outer:
	for range xs {
		for range ys {
			continue outer
		}
		sync()
	}
	rename()
}`, "f")
	// continue outer must jump to the outer loop header, bypassing the sync
	// that follows the inner loop in the outer body.
	if mustPrecede(g, "sync", "rename") {
		t.Errorf("labeled continue bypasses the rest of the outer body:\n%s", g)
	}
}
