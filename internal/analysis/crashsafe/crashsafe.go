// Package crashsafe checks the persistence layer's crash-ordering
// discipline on every control-flow path: temp files follow
// write → fsync → rename (→ directory fsync), and state mutations follow
// log → sync → apply. A path that renames before syncing, fsyncs after the
// rename it was supposed to protect, applies to the memtable while a WAL
// append is still ahead, or truncates the WAL after a rename that is not
// yet durable, is exactly the crash window the recovery protocol cannot
// close — the DeltaCFS checksum store assumes the log is ahead of the
// state it describes.
//
// The analysis is flow-sensitive (per-function CFG from
// internal/analysis/cfg) and call-graph aware: "this call fsyncs" is a
// transitive property resolved through internal/analysis/callgraph, so a
// helper that wraps (*os.File).Sync still satisfies the must-sync
// obligation at its call site.
//
// Event classification (project conventions, documented in DESIGN.md §12):
//
//   - fsync: (*os.File).Sync by identity, or any Sync method from the
//     internal/storagefault layer (the File interface and its
//     implementations — all persistence sites now write through it), or
//     any function that transitively reaches one (excluding directory-sync
//     helpers, which are their own event class).
//   - directory fsync: a call to a function whose name contains "syncdir"
//     (case-insensitive; e.g. syncDir, fsyncDir), or one transitively
//     reaching such a function. Renaming gives a file its durable name;
//     only the parent directory's fsync makes the *name* durable.
//   - rename: os.Rename by identity, or a Rename method from
//     internal/storagefault (FS interface and implementations). The source
//     argument is "a temp file" when it mentions a ".tmp" literal or a
//     variable assigned from one.
//   - WAL append: a direct call to a writeRecord/appendRecord-style
//     function whose destination argument mentions the WAL (an identifier
//     containing "wal") — the same helper writing snapshot records is not
//     a WAL append.
//   - apply: an assignment into (or delete from) a map field named "table",
//     the kvstore's memtable convention.
//   - truncate: (*os.File).Truncate or os.Truncate by identity, or a
//     Truncate method from internal/storagefault.
//
// Reported shapes:
//
//  1. a temp-file rename not preceded by an fsync on every path;
//  2. an fsync on a path where an unsynced temp rename already happened
//     (the inverted write→rename→fsync order);
//  3. an apply with no WAL append behind it on some path but one still
//     ahead (log→sync→apply inverted);
//  4. a temp-file rename in a function with no directory-fsync at all
//     (the rename itself may not survive a crash);
//  5. a truncate on a path where a rename has happened with no directory
//     fsync in between (the classic compaction data-loss window: the old
//     file is gone from the log but the new name is not durable yet).
//
// The must-sync bit is not per-file: any fsync satisfies an obligation.
// That misses interleaved multi-file bugs but never reports a false
// positive for the single-temp-file discipline this codebase uses.
package crashsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// Analyzer is the crashsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "crashsafe",
	Doc:  "persistence paths must follow write->fsync->rename->dirsync and log->sync->apply on every CFG path",
	Run:  run,
}

type evKind int

const (
	evSync evKind = iota
	evDirSync
	evRename
	evWALAppend
	evApply
	evTrunc
)

type ev struct {
	kind evKind
	pos  ast.Node
	tmp  bool // evRename: source argument is a temp file
}

// syncFact is the program-wide summary: which functions transitively fsync
// a file, and which transitively fsync a directory.
type syncFact struct {
	syncs    map[*types.Func]*callgraph.Witness
	dirsyncs map[*types.Func]*callgraph.Witness
}

func buildFact(prog *analysis.Program) *syncFact {
	f := &syncFact{}
	f.syncs = prog.Graph.Transitive(
		func(n *callgraph.Node) string {
			if isFileSync(n.Func) {
				return "fsync"
			}
			return ""
		},
		func(e *callgraph.Edge) bool {
			return e.InGo || e.InLit || isDirSyncName(e.Callee.Func.Name())
		},
	)
	// Directory-sync helpers are their own event class, not generic fsyncs.
	for fn := range f.syncs {
		if isDirSyncName(fn.Name()) {
			delete(f.syncs, fn)
		}
	}
	f.dirsyncs = prog.Graph.Transitive(
		func(n *callgraph.Node) string {
			if isDirSyncName(n.Func.Name()) {
				return "directory fsync"
			}
			return ""
		},
		func(e *callgraph.Edge) bool { return e.InGo || e.InLit },
	)
	return f
}

func run(pass *analysis.Pass) error {
	fact := pass.Prog.Fact(pass.Analyzer, func(prog *analysis.Program) any {
		return buildFact(prog)
	}).(*syncFact)
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

// state is the per-program-point dataflow tuple.
type state struct {
	mustSync      bool // an fsync has happened on every path here
	mustWAL       bool // a WAL append has happened on every path here
	unsyncedMay   bool // some path renamed a temp file with no fsync before it
	sinceRenameNo bool // some path renamed with no directory fsync since
}

func meet(a, b state) state {
	return state{
		mustSync:      a.mustSync && b.mustSync,
		mustWAL:       a.mustWAL && b.mustWAL,
		unsyncedMay:   a.unsyncedMay || b.unsyncedMay,
		sinceRenameNo: a.sinceRenameNo || b.sinceRenameNo,
	}
}

func transfer(s state, e ev) state {
	switch e.kind {
	case evSync:
		s.mustSync = true
	case evDirSync:
		s.sinceRenameNo = false
	case evRename:
		if e.tmp && !s.mustSync {
			s.unsyncedMay = true
		}
		s.sinceRenameNo = true
	case evWALAppend:
		s.mustWAL = true
	}
	return s
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, fact *syncFact) {
	g := pass.Prog.CFG(fd)
	post := g.Postorder()
	tmpObjs := collectTmpObjs(pass.TypesInfo, fd)

	// Classify events per reachable block, in node order.
	evmap := make(map[*cfg.Block][]ev)
	anyEvents, anyDirSync := false, false
	for _, b := range post {
		var evs []ev
		for _, n := range b.Nodes {
			evs = append(evs, classify(pass, n, fact, tmpObjs)...)
		}
		for _, e := range evs {
			anyEvents = true
			if e.kind == evDirSync {
				anyDirSync = true
			}
		}
		evmap[b] = evs
	}
	if !anyEvents {
		return
	}

	// Forward over the state tuple; the optimistic state (both must bits
	// set, both may bits clear) is the meet's identity.
	in := cfg.Forward(g, cfg.Lattice[state]{
		Identity: state{mustSync: true, mustWAL: true},
		Join:     meet,
		Equal:    func(a, b state) bool { return a == b },
	}, state{}, func(b *cfg.Block, s state) state {
		for _, e := range evmap[b] {
			s = transfer(s, e)
		}
		return s
	}).In

	// Backward "WAL append ahead" bit: Out[b] holds at the start of b.
	aheadIn := cfg.Backward(g, cfg.Lattice[bool]{
		Join:  func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	}, false, func(b *cfg.Block, ahead bool) bool {
		for _, e := range evmap[b] {
			if e.kind == evWALAppend {
				return true
			}
		}
		return ahead
	}).Out

	// Report pass: replay each block with converged entry state.
	for _, b := range post {
		s := in[b]
		evs := evmap[b]
		for i, e := range evs {
			switch e.kind {
			case evRename:
				if e.tmp && !s.mustSync {
					pass.Reportf(e.pos.Pos(), "temp file renamed without an fsync on every path to it: write->fsync->rename (a crash may publish an empty or partial file under the final name)")
				}
				if e.tmp && !anyDirSync {
					pass.Reportf(e.pos.Pos(), "temp-file rename is never made durable: no directory fsync (syncDir-style call) follows the rename anywhere in %s", fd.Name.Name)
				}
			case evSync:
				if s.unsyncedMay {
					pass.Reportf(e.pos.Pos(), "fsync after an unsynced temp rename: the temp file must be synced before os.Rename publishes it, not after")
				}
			case evApply:
				ahead := walAheadAt(evs, i, b, aheadIn)
				if !s.mustWAL && ahead {
					pass.Reportf(e.pos.Pos(), "state applied to the memtable before its WAL record is appended: log->sync->apply (a crash here replays a log that never saw this mutation)")
				}
			case evTrunc:
				if s.sinceRenameNo {
					pass.Reportf(e.pos.Pos(), "truncate after a rename with no directory fsync in between: a crash can lose the rename and the truncated contents together (fsync the directory first)")
				}
			}
			s = transfer(s, e)
		}
	}
}

// walAheadAt reports whether a WAL append occurs after event index i — later
// in the same block or on any successor path.
func walAheadAt(evs []ev, i int, b *cfg.Block, aheadIn map[*cfg.Block]bool) bool {
	for _, e := range evs[i+1:] {
		if e.kind == evWALAppend {
			return true
		}
	}
	for _, sc := range b.Succs {
		if aheadIn[sc] {
			return true
		}
	}
	return false
}

// classify extracts the ordered crash-ordering events inside one CFG node.
func classify(pass *analysis.Pass, n ast.Node, fact *syncFact, tmpObjs map[types.Object]bool) []ev {
	var out []ev
	info := pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			// A deferred call runs at function exit, not here; counting it
			// at the defer site would wrongly satisfy a must-sync obligation
			// for a later rename.
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isTableIndex(info, lhs) {
					out = append(out, ev{kind: evApply, pos: lhs})
				}
			}
		case *ast.CallExpr:
			out = append(out, classifyCall(pass, x, fact, tmpObjs)...)
		}
		return true
	})
	return out
}

func classifyCall(pass *analysis.Pass, call *ast.CallExpr, fact *syncFact, tmpObjs map[types.Object]bool) []ev {
	info := pass.TypesInfo
	// delete(x.table, k) is an apply.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
		if isTableSelector(info, call.Args[0]) {
			return []ev{{kind: evApply, pos: call}}
		}
	}
	fn := analysis.CalleeOf(info, call)
	if fn == nil {
		return nil
	}
	pkg := analysis.PkgPathOf(fn)
	recv := analysis.RecvTypeName(fn)
	name := fn.Name()
	var out []ev
	// The os package and the storagefault layer share primitive names
	// (Rename, Truncate): both namespaces carry crash-ordering events.
	primitiveNS := (pkg == "os" && recv == "") || isStorageFaultFn(fn)
	switch {
	case primitiveNS && name == "Rename" && len(call.Args) >= 1:
		out = append(out, ev{kind: evRename, pos: call, tmp: isTmpExpr(info, call.Args[0], tmpObjs)})
	case isDirSyncName(name) || fact.dirsyncs[fn] != nil:
		out = append(out, ev{kind: evDirSync, pos: call})
	case isFileSync(fn) || fact.syncs[fn] != nil:
		out = append(out, ev{kind: evSync, pos: call})
	case (primitiveNS && name == "Truncate") ||
		(pkg == "os" && name == "Truncate" && recv == "File"):
		out = append(out, ev{kind: evTrunc, pos: call})
	case isWALAppendName(name) && len(call.Args) > 0 && mentionsWAL(call.Args[0]):
		out = append(out, ev{kind: evWALAppend, pos: call})
	}
	return out
}

func isFileSync(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if analysis.PkgPathOf(fn) == "os" &&
		analysis.RecvTypeName(fn) == "File" && fn.Name() == "Sync" {
		return true
	}
	// The storagefault File interface (and every implementation) is the
	// project's fsync source: persistence sites call Sync through it.
	return isStorageFaultFn(fn) && fn.Name() == "Sync"
}

// isStorageFaultFn reports whether fn belongs to the internal/storagefault
// package — the file-IO layer all persistence sites write through. Calls
// resolve here both directly (concrete SimDisk/Injector/osFS methods) and
// through the FS/File interfaces.
func isStorageFaultFn(fn *types.Func) bool {
	return fn != nil && analysis.PathSuffixMatch(analysis.PkgPathOf(fn), "internal/storagefault")
}

func isDirSyncName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "syncdir") || strings.Contains(l, "dirsync") || l == "fsyncdir"
}

func isWALAppendName(name string) bool {
	switch strings.ToLower(name) {
	case "writerecord", "appendrecord", "walappend", "appendwal", "writewal":
		return true
	}
	return false
}

// mentionsWAL reports whether the expression contains an identifier or
// selector whose name contains "wal" — the convention distinguishing the
// write-ahead log destination from e.g. a snapshot writer.
func mentionsWAL(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "wal") {
			found = true
		}
		return !found
	})
	return found
}

// isTableIndex matches x.table[...] on a map-typed field named "table".
func isTableIndex(info *types.Info, e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	return isTableSelector(info, idx.X)
}

func isTableSelector(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "table" {
		return false
	}
	tv, ok := info.Types[sel]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// collectTmpObjs finds variables assigned (anywhere in the function,
// flow-insensitively) from an expression containing a ".tmp" literal.
func collectTmpObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !containsTmpLit(rhs) || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func containsTmpLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && strings.Contains(lit.Value, ".tmp") {
			found = true
		}
		return !found
	})
	return found
}

// isTmpExpr reports whether a rename source argument denotes a temp file:
// a ".tmp" literal inside it, a variable assigned from one, or an
// identifier conventionally named tmp*.
func isTmpExpr(info *types.Info, e ast.Expr, tmpObjs map[types.Object]bool) bool {
	if containsTmpLit(e) {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if tmpObjs[info.Uses[id]] || tmpObjs[info.Defs[id]] {
			found = true
		}
		if strings.HasPrefix(strings.ToLower(id.Name), "tmp") {
			found = true
		}
		return !found
	})
	return found
}
