// Package lockguard lints the concurrency seams of the tree: the few
// places (control-plane hub, scenario runner timings)
// where real goroutines meet the otherwise single-threaded simulation.
//
// Three checks share the analyzer:
//
//  1. Guarded fields. A struct field annotated
//
//     events ring //selfmaint:guardedby mu
//
//     must only be read or written while the named sibling mutex is held
//     on the same receiver path (s.events requires s.mu). The lockset
//     analysis is intraprocedural and conservative: Lock/RLock adds the
//     rendered receiver expression, Unlock/RUnlock removes it, deferred
//     unlocks hold to function end, nested control flow cannot leak an
//     acquisition out of its branch, and function literals start empty
//     (they usually run later, on another goroutine's lockset).
//
//     One interprocedural convention is honored: a method whose name ends
//     in "Locked" is analyzed as if every sync.Mutex/RWMutex field of its
//     receiver were already held. The suffix is a contract — the caller
//     acquired the lock — and the guarded-field check trusts it rather
//     than forcing such helpers to be inlined or annotated line by line.
//     The contract's caller side is not verified; the suffix itself is the
//     audit trail.
//
//  2. Publish under lock. Bus deliveries run handlers synchronously, so
//     publishing with a mutex held hands every handler the lock's
//     critical section — re-entry deadlocks at worst, surprise lock-order
//     coupling at best. Flagged at direct Bus.Publish calls and, through
//     Publishes facts, at calls into helpers that publish transitively.
//
//  3. Blocking handlers. A handler literal passed to Bus.Subscribe or
//     Bus.Tap must not block: a channel send, receive, or lock
//     acquisition inside delivery stalls the whole bus. Direct channel
//     operations and sync calls are flagged lexically; helpers that block
//     are caught through Blocks facts with the chain to the operation
//     (spawning a goroutine is the sanctioned hand-off, so go statements
//     are skipped).
//
// Like the other analyzers, escape hatches are //lint:allow lockguard
// directives with reasons — the selfmaintd tap, for example, takes its
// ring lock inside a handler deliberately, because the publisher is the
// single-threaded engine loop.
package lockguard

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/busreentry"
	"repro/internal/lint/facts"
)

// Directive marks a struct field as guarded by a sibling mutex field.
const Directive = "//selfmaint:guardedby"

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "check //selfmaint:guardedby fields, publish-under-lock, and blocking bus handlers\n\n" +
		"The concurrency seams are small and must stay auditable: guarded\n" +
		"fields only under their mutex, no bus publishes with a lock held,\n" +
		"no blocking operations inside handler literals.",
	Run:           run,
	FactCollector: collect,
}

// collect emits a Blocks origin for every blocking operation — channel
// sends and receives, sync lock acquisitions and waits — in every package,
// so a handler calling into a helper that blocks is caught at the call.
func collect(pkg *facts.PkgInfo) []facts.Origin {
	var out []facts.Origin
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				out = append(out, facts.Origin{Kind: facts.Blocks, Pos: n.Arrow, Desc: "channel send"})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					out = append(out, facts.Origin{Kind: facts.Blocks, Pos: n.Pos(), Desc: "channel receive"})
				}
			case *ast.CallExpr:
				switch name, _ := syncCall(pkg.Info, n); name {
				case "Lock", "RLock":
					out = append(out, facts.Origin{Kind: facts.Blocks, Pos: n.Pos(), Desc: renderRecv(pkg.Fset, n) + ".Lock"})
				case "Wait":
					out = append(out, facts.Origin{Kind: facts.Blocks, Pos: n.Pos(), Desc: renderRecv(pkg.Fset, n) + ".Wait"})
				}
			}
			return true
		})
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	a := &lockAnalyzer{pass: pass, guarded: guardedFields(pass)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				a.block(fd.Body.List, a.initialLockset(fd))
			}
		}
		// Function literals run on their caller's (often another
		// goroutine's) stack; analyze each with an empty lockset.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				a.block(lit.Body.List, make(lockset))
			}
			return true
		})
	}
	checkHandlers(pass)
	return nil, nil
}

// guardedFields scans the package's struct declarations for annotated
// fields, returning field object -> lock field name. Annotations naming a
// non-existent sibling are reported immediately: a typo must not silently
// guard nothing.
func guardedFields(pass *analysis.Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			names := make(map[string]bool)
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					names[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				lock, ok := guardDirective(field)
				if !ok {
					continue
				}
				if !names[lock] {
					pass.Reportf(field.Pos(), "%s %s names no sibling field of this struct", Directive, lock)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = lock
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardDirective extracts the lock name from a field's doc or line comment.
func guardDirective(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, Directive)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return fields[0], true
			}
		}
	}
	return "", false
}

// lockset is the set of held locks, keyed by the rendered receiver
// expression of the acquiring call ("s.mu").
type lockset map[string]bool

func (ls lockset) clone() lockset {
	cp := make(lockset, len(ls))
	for k := range ls {
		cp[k] = true
	}
	return cp
}

// one returns a deterministic representative held lock for messages.
func (ls lockset) one() string {
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

type lockAnalyzer struct {
	pass    *analysis.Pass
	guarded map[types.Object]string
}

// initialLockset seeds a function body's lockset. Methods following the
// *Locked naming convention start with every sync mutex field of their
// receiver held — the suffix asserts the caller acquired them.
func (a *lockAnalyzer) initialLockset(fd *ast.FuncDecl) lockset {
	held := make(lockset)
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return held
	}
	recv := fd.Recv.List[0]
	if len(recv.Names) == 0 {
		return held
	}
	obj := a.pass.TypesInfo.Defs[recv.Names[0]]
	if obj == nil {
		return held
	}
	st := receiverStruct(obj.Type())
	if st == nil {
		return held
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); isSyncLock(f.Type()) {
			held[recv.Names[0].Name+"."+f.Name()] = true
		}
	}
	return held
}

// receiverStruct resolves a method receiver type (possibly a pointer) to
// its struct definition.
func receiverStruct(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex.
func isSyncLock(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// block walks a statement list sequentially, threading the lockset through
// lock and unlock calls and checking every other statement's expressions.
func (a *lockAnalyzer) block(list []ast.Stmt, held lockset) {
	for _, stmt := range list {
		a.stmt(stmt, held)
	}
}

func (a *lockAnalyzer) stmt(s ast.Stmt, held lockset) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch name, _ := syncCall(a.pass.TypesInfo, call); name {
			case "Lock", "RLock":
				held[renderRecv(a.pass.Fset, call)] = true
				return
			case "Unlock", "RUnlock":
				delete(held, renderRecv(a.pass.Fset, call))
				return
			}
		}
		a.expr(s.X, held)
	case *ast.DeferStmt:
		if name, _ := syncCall(a.pass.TypesInfo, s.Call); name == "Unlock" || name == "RUnlock" {
			return // deferred unlock: the lock is held to function end
		}
		a.expr(s.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks; its
		// literal body is analyzed separately with an empty lockset.
		a.expr(s.Call, make(lockset))
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			a.expr(e, held)
		}
		for _, e := range s.Lhs {
			a.expr(e, held)
		}
	case *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt:
		a.exprsOf(s, held)
	case *ast.BlockStmt:
		a.block(s.List, held.clone())
	case *ast.IfStmt:
		a.stmt(s.Init, held)
		a.expr(s.Cond, held)
		a.block(s.Body.List, held.clone())
		if s.Else != nil {
			a.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		a.stmt(s.Init, held)
		a.expr(s.Cond, held)
		inner := held.clone()
		a.stmt(s.Post, inner)
		a.block(s.Body.List, inner)
	case *ast.RangeStmt:
		a.expr(s.X, held)
		a.block(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		a.stmt(s.Init, held)
		a.expr(s.Tag, held)
		a.caseBodies(s.Body, held)
	case *ast.TypeSwitchStmt:
		a.stmt(s.Init, held)
		a.stmt(s.Assign, held)
		a.caseBodies(s.Body, held)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				inner := held.clone()
				a.stmt(c.Comm, inner)
				a.block(c.Body, inner)
			}
		}
	default:
		a.exprsOf(s, held)
	}
}

func (a *lockAnalyzer) caseBodies(body *ast.BlockStmt, held lockset) {
	for _, cc := range body.List {
		if c, ok := cc.(*ast.CaseClause); ok {
			for _, e := range c.List {
				a.expr(e, held)
			}
			a.block(c.Body, held.clone())
		}
	}
}

// exprsOf checks every expression directly under a statement the walker
// has no special handling for.
func (a *lockAnalyzer) exprsOf(s ast.Stmt, held lockset) {
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			a.expr(e, held)
			return false
		}
		return true
	})
}

// expr checks one expression tree against the current lockset: guarded
// field accesses must hold their mutex, and no call may publish to the bus
// while anything is held. Nested function literals are skipped — they are
// analyzed as their own empty-lockset bodies.
func (a *lockAnalyzer) expr(e ast.Expr, held lockset) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			a.checkGuarded(n, held)
		case *ast.CallExpr:
			a.checkPublish(n, held)
		}
		return true
	})
}

// checkGuarded flags sel when it reads or writes an annotated field
// without its mutex in the lockset on the same receiver path.
func (a *lockAnalyzer) checkGuarded(sel *ast.SelectorExpr, held lockset) {
	s, ok := a.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	lock, ok := a.guarded[s.Obj()]
	if !ok {
		return
	}
	need := render(a.pass.Fset, sel.X) + "." + lock
	if held[need] {
		return
	}
	a.pass.Reportf(sel.Sel.Pos(),
		"field %s is annotated %s %s but is accessed without holding %s",
		s.Obj().Name(), Directive, lock, need)
}

// checkPublish flags bus publishes while any lock is held: direct
// Bus.Publish/Subscribe/Tap calls, and calls whose callee carries a
// Publishes fact.
func (a *lockAnalyzer) checkPublish(call *ast.CallExpr, held lockset) {
	if len(held) == 0 {
		return
	}
	if name, ok := busreentry.BusMethod(a.pass.TypesInfo, call); ok {
		if name == "Publish" || name == "Subscribe" || name == "Tap" {
			a.pass.Reportf(call.Pos(),
				"Bus.%s called while %s is held: deliveries run handlers synchronously inside the critical section; "+
					"release the lock first or annotate //lint:allow lockguard <reason>",
				name, held.one())
		}
		return
	}
	if fact, ok := a.pass.Facts.CallFact(call, facts.Publishes); ok {
		a.pass.ReportTransitive(call, fact,
			"call publishes to the bus while %s is held: deliveries run handlers synchronously inside the critical section",
			held.one())
	}
}

// checkHandlers flags blocking operations inside handler literals passed
// to Bus.Subscribe and Bus.Tap.
func checkHandlers(pass *analysis.Pass) {
	handlerArg := map[string]int{"Subscribe": 1, "Tap": 0}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := busreentry.BusMethod(pass.TypesInfo, call)
			if !ok {
				return true
			}
			argIdx, ok := handlerArg[name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			lit, ok := call.Args[argIdx].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkHandlerBody(pass, name, lit.Body)
			return true
		})
	}
}

func checkHandlerBody(pass *analysis.Pass, reg string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Spawning a goroutine is the sanctioned non-blocking hand-off.
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Arrow,
				"channel send inside a handler passed to Bus.%s: handlers run synchronously inside Publish and must not block; "+
					"hand off via a goroutine or annotate //lint:allow lockguard <reason>", reg)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"channel receive inside a handler passed to Bus.%s: handlers run synchronously inside Publish and must not block; "+
						"hand off via a goroutine or annotate //lint:allow lockguard <reason>", reg)
			}
		case *ast.CallExpr:
			switch sc, _ := syncCall(pass.TypesInfo, n); sc {
			case "Lock", "RLock", "Wait":
				pass.Reportf(n.Pos(),
					"%s.%s inside a handler passed to Bus.%s: handlers run synchronously inside Publish and must not block; "+
						"hand off via a goroutine or annotate //lint:allow lockguard <reason>",
					renderRecv(pass.Fset, n), sc, reg)
				return true
			}
			if fact, ok := pass.Facts.CallFact(n, facts.Blocks); ok {
				pass.ReportTransitive(n, fact,
					"call blocks inside a handler passed to Bus.%s: handlers run synchronously inside Publish", reg)
			}
		}
		return true
	})
}

// syncCall reports the method name when call invokes a method of a sync
// package type (Mutex.Lock, RWMutex.RUnlock, WaitGroup.Wait, ...), and the
// receiver expression it was invoked on.
func syncCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	return fn.Name(), sel.X
}

// renderRecv renders the receiver expression of a sync method call ("s.mu").
func renderRecv(fset *token.FileSet, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "?"
	}
	return render(fset, sel.X)
}

// render prints an expression compactly for lockset keys and messages.
func render(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
