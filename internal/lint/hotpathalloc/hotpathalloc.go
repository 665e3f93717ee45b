// Package hotpathalloc flags detectable allocation sites in functions
// annotated //selfmaint:hotpath. The annotated functions are the ones the
// tier-1 AllocsPerRun assertions hold at (or near) zero — the steady-state
// assessment, path enumeration, and event-pump loops — and this analyzer
// moves the "someone added an allocation" signal from a failing benchmark
// assertion after the fact to a vet-time finding with a file and line.
//
// Flagged sites:
//
//   - make and new calls
//   - map and slice composite literals, and &T{...} (heap-escaping)
//   - append inside a loop whose destination is not a parameter (growing a
//     local or field per iteration)
//   - fmt.Sprintf / Sprint / Sprintln / Errorf (formatting allocates)
//   - string concatenation inside a loop
//   - func literals inside a loop that capture the loop variable (each
//     iteration allocates a fresh closure)
//
// Site detection is syntactic (it cannot see escape analysis, so
// deliberate cold-branch allocations — free-list refill, cache miss —
// carry a //lint:allow hotpathalloc directive with the amortization
// argument), but the check itself is interprocedural: every function's
// allocation sites become Allocates facts, so a hotpath function calling a
// helper that allocates three frames down is flagged at the call with the
// chain to the exact make().
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
)

// Directive marks a function whose body this analyzer checks.
const Directive = "//selfmaint:hotpath"

var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flag allocation sites in //selfmaint:hotpath functions\n\n" +
		"Annotated functions back zero-alloc AllocsPerRun assertions;\n" +
		"this check points at the exact line a new allocation enters,\n" +
		"including allocations reached through callees.",
	Run:           run,
	FactCollector: collect,
}

var fmtAllocs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// site is one detected allocation: desc is the short name used as a fact
// chain tail ("make"), msg the full direct-diagnostic message.
type site struct {
	pos  token.Pos
	desc string
	msg  string
}

// collect runs the allocation checker over every function of the package —
// hotpath or not — and exports each site as an Allocates fact origin; the
// invariant is enforced where a hotpath function consumes the fact.
func collect(pkg *facts.PkgInfo) []facts.Origin {
	var out []facts.Origin
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{info: pkg.Info, params: paramObjs(pkg.Info, fd), emit: func(s site) {
				out = append(out, facts.Origin{Kind: facts.Allocates, Pos: s.pos, Desc: s.desc})
			}}
			c.check(fd.Body)
		}
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			c := &checker{info: pass.TypesInfo, params: paramObjs(pass.TypesInfo, fd), emit: func(s site) {
				pass.Reportf(s.pos, "%s", s.msg)
			}}
			c.check(fd.Body)
			reportTransitive(pass, fd.Body)
		}
	}
	return nil, nil
}

// reportTransitive flags calls in a hotpath body whose callee carries an
// Allocates fact, at any loop depth: a helper that allocates once per call
// is on the hot path as soon as the hot path calls it.
func reportTransitive(pass *analysis.Pass, body *ast.BlockStmt) {
	reported := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		if fact, ok := pass.Facts.CallFact(call, facts.Allocates); ok {
			reported[call.Pos()] = true
			pass.ReportTransitive(call, fact,
				"call allocates in a //selfmaint:hotpath function; hoist the allocation off the hot path")
		}
		return true
	})
}

// isHotPath reports whether the declaration carries the hotpath directive.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// paramObjs collects the parameter (and receiver) objects of fd: appending
// to a caller-provided buffer is the intended zero-alloc pattern, so those
// destinations are exempt from the append rule.
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return objs
}

// checker walks one function body tracking loop nesting and the loop
// variables currently in scope, emitting each detected allocation site. It
// is the body's ast.Visitor: one walk visits every node, in ast.Walk's
// order, with no slice or closure per node.
type checker struct {
	info     *types.Info
	params   map[types.Object]bool
	emit     func(site)
	loopVars []types.Object
	depth    int // loops enclosing the node being visited
}

// check walks n at the current loop depth.
func (c *checker) check(n ast.Node) {
	if n != nil {
		ast.Walk(c, n)
	}
}

// Visit checks one node. Loops and &T{...} literals walk their parts
// themselves, to track where loops begin and to skip the literal's type;
// every other node lets ast.Walk descend into its children.
func (c *checker) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.ForStmt:
		c.check(n.Init)
		mark := len(c.loopVars)
		c.noteLoopVars(n.Init)
		c.depth++
		c.check(n.Cond)
		c.check(n.Post)
		c.check(n.Body)
		c.depth--
		c.loopVars = c.loopVars[:mark]
		return nil
	case *ast.RangeStmt:
		c.check(n.X)
		mark := len(c.loopVars)
		for _, e := range [2]ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := c.info.Defs[id]; obj != nil {
					c.loopVars = append(c.loopVars, obj)
				}
			}
		}
		c.depth++
		c.check(n.Body)
		c.depth--
		c.loopVars = c.loopVars[:mark]
		return nil
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.CompositeLit:
		c.checkComposite(n, false)
	case *ast.UnaryExpr:
		if lit, ok := n.X.(*ast.CompositeLit); ok {
			c.checkComposite(lit, true)
			// Walk the literal's elements only.
			for _, e := range lit.Elts {
				c.check(e)
			}
			return nil
		}
	case *ast.BinaryExpr:
		c.checkStringConcat(n)
	case *ast.AssignStmt:
		c.checkStringConcatAssign(n)
	case *ast.FuncLit:
		c.checkClosure(n)
		// Statements inside the literal run when it is called; allocation
		// sites in there still execute on the hot path, so keep walking.
	}
	return c
}

func (c *checker) checkCall(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := c.info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.emit(site{call.Pos(), "make", "make allocates in a //selfmaint:hotpath function; reuse a retained buffer or free list"})
			case "new":
				c.emit(site{call.Pos(), "new", "new allocates in a //selfmaint:hotpath function; reuse a retained struct or free list"})
			case "append":
				c.checkAppend(call)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := c.info.Uses[fun.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocs[fn.Name()] {
			c.emit(site{call.Pos(), "fmt." + fn.Name(),
				"fmt." + fn.Name() + " allocates in a //selfmaint:hotpath function; format off the hot path"})
		}
	}
}

// checkAppend flags append-in-loop when the destination is not a parameter:
// growing a local or a field per loop iteration is an allocation treadmill,
// while appending into a caller-provided buffer is the reuse pattern.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if c.depth == 0 || len(call.Args) == 0 {
		return
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		if obj := c.info.Uses[id]; obj != nil && c.params[obj] {
			return
		}
	}
	c.emit(site{call.Pos(), "append in loop",
		"append to a non-parameter slice inside a loop in a //selfmaint:hotpath function; grow a reused buffer instead"})
}

// checkComposite flags map/slice literals, and struct literals when their
// address is taken (&T{...} escapes to the heap at this site).
func (c *checker) checkComposite(lit *ast.CompositeLit, addressed bool) {
	t := c.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.emit(site{lit.Pos(), "map literal", "map literal allocates in a //selfmaint:hotpath function"})
	case *types.Slice:
		c.emit(site{lit.Pos(), "slice literal", "slice literal allocates in a //selfmaint:hotpath function"})
	default:
		if addressed {
			c.emit(site{lit.Pos(), "&composite literal",
				"&composite literal allocates in a //selfmaint:hotpath function; reuse a retained struct"})
		}
	}
}

func (c *checker) checkStringConcat(b *ast.BinaryExpr) {
	if c.depth == 0 || b.Op != token.ADD {
		return
	}
	if t := c.info.TypeOf(b); t != nil {
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			c.emit(site{b.Pos(), "string concat in loop",
				"string concatenation inside a loop allocates in a //selfmaint:hotpath function"})
		}
	}
}

func (c *checker) checkStringConcatAssign(a *ast.AssignStmt) {
	if c.depth == 0 || a.Tok != token.ADD_ASSIGN || len(a.Lhs) != 1 {
		return
	}
	if t := c.info.TypeOf(a.Lhs[0]); t != nil {
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			c.emit(site{a.Pos(), "string += in loop",
				"string += inside a loop allocates in a //selfmaint:hotpath function"})
		}
	}
}

// checkClosure flags func literals in a loop that capture a loop variable:
// the capture forces a per-iteration heap allocation.
func (c *checker) checkClosure(lit *ast.FuncLit) {
	if c.depth == 0 || len(c.loopVars) == 0 {
		return
	}
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		if obj := c.info.Uses[id]; obj != nil {
			for _, lv := range c.loopVars {
				if obj == lv {
					captured = id.Name
					return false
				}
			}
		}
		return true
	})
	if captured != "" {
		c.emit(site{lit.Pos(), "closure capture",
			"closure captures loop variable \"" + captured + "\" in a //selfmaint:hotpath function: one allocation per iteration"})
	}
}

// noteLoopVars records variables defined by a for-init statement.
func (c *checker) noteLoopVars(init ast.Stmt) {
	assign, ok := init.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, l := range assign.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := c.info.Defs[id]; obj != nil {
				c.loopVars = append(c.loopVars, obj)
			}
		}
	}
}
