package facts

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// PkgInfo is the slice of a type-checked package the fact layer needs; it
// deliberately avoids importing the loader so analyzers can depend on this
// package without cycles.
type PkgInfo struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Collector is one analyzer's origin scanner. It runs over every package —
// deterministic or not — because facts are consumed where the invariant
// applies, not where the site lives.
type Collector func(*PkgInfo) []Origin

// Suppressor reports whether a //lint:allow directive for analyzer covers
// pos. The fact layer consults it at origin sites and at every call edge,
// so an allow prunes propagation exactly where a human argued safety; the
// implementation is expected to mark the directive used for -stale.
type Suppressor func(analyzer string, pos token.Pos) bool

// node is one function-like body participating in the package call graph.
type node struct {
	key     string
	name    string // display name for chains ("EvaluateInto", "Router.paths")
	body    *ast.BlockStmt
	pos     token.Pos
	end     token.Pos
	retsErr bool
	calls   []callSite
}

// callSite is one call expression with its statically resolved callees.
type callSite struct {
	call    *ast.CallExpr
	callees []string // sorted object keys
}

// View gives analyzers per-call-site access to the propagated facts of one
// package. Analyzers ask "does anything this call reaches carry fact K?"
// and render the chain into their diagnostic.
type View struct {
	store   *Store
	byCall  map[*ast.CallExpr]*callSite
	callers map[*ast.CallExpr]string // call -> enclosing function display name
}

// CallFacts returns the facts carried by the callees of call, at most one
// per kind, in kind order. A call the builder could not resolve returns
// nil (the documented soundness boundary).
func (v *View) CallFacts(call *ast.CallExpr) []Fact {
	if v == nil {
		return nil
	}
	cs := v.byCall[call]
	if cs == nil {
		return nil
	}
	var out []Fact
	for k := Kind(0); k < numKinds; k++ {
		for _, key := range cs.callees {
			if f, ok := v.store.get(key, k); ok {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// CallFact returns the callee fact of kind k at call, if any.
func (v *View) CallFact(call *ast.CallExpr, k Kind) (Fact, bool) {
	for _, f := range v.CallFacts(call) {
		if f.Kind == k {
			return f, true
		}
	}
	return Fact{}, false
}

// Caller returns the display name of the function enclosing call ("" at
// package level).
func (v *View) Caller(call *ast.CallExpr) string {
	if v == nil {
		return ""
	}
	return v.callers[call]
}

// Analyze computes and propagates facts for one package, installs them in
// the store, and returns the package's call-site view. collectors seed the
// origins; suppress applies //lint:allow pruning.
func Analyze(pkg *PkgInfo, store *Store, collectors []Collector, suppress Suppressor) *View {
	if suppress == nil {
		suppress = func(string, token.Pos) bool { return false }
	}
	b := &builder{pkg: pkg, store: store, suppress: suppress}
	b.collectNodes()
	b.collectBindings()
	b.resolveCalls()

	b.seed(collectors)
	b.propagate()

	v := &View{store: store, byCall: make(map[*ast.CallExpr]*callSite), callers: make(map[*ast.CallExpr]string)}
	for i := range b.nodes {
		n := b.nodes[i]
		for j := range n.calls {
			v.byCall[n.calls[j].call] = &n.calls[j]
			v.callers[n.calls[j].call] = n.name
		}
	}
	return v
}

type builder struct {
	pkg      *PkgInfo
	store    *Store
	suppress Suppressor
	nodes    []*node
	byKey    map[string]*node
	// bindings maps a function-typed variable or struct field to the keys
	// of every function value assigned to it within this package.
	bindings map[types.Object][]string
}

// litKey returns the per-run key of a function literal. Literals never
// cross package boundaries by name; the position keeps the key stable
// within a run.
func (b *builder) litKey(lit *ast.FuncLit) string {
	p := b.pkg.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.funclit@%s:%d:%d", b.pkg.Pkg.Path(), filepath.Base(p.Filename), p.Line, p.Column)
}

// collectNodes gathers every FuncDecl and FuncLit as a call-graph node, in
// position order.
func (b *builder) collectNodes() {
	b.byKey = make(map[string]*node)
	for _, f := range b.pkg.Files {
		ast.Inspect(f, func(an ast.Node) bool {
			switch d := an.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					return true
				}
				fn, ok := b.pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					return true
				}
				name := d.Name.Name
				if d.Recv != nil {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						rn := recvName(sig.Recv().Type())
						if len(rn) > 0 && rn[0] == '*' {
							rn = rn[1:]
						}
						name = rn + "." + name
					}
				}
				b.addNode(&node{key: ObjectKey(fn), name: name, body: d.Body,
					pos: d.Body.Pos(), end: d.Body.End(), retsErr: returnsError(fn.Type())})
			case *ast.FuncLit:
				p := b.pkg.Fset.Position(d.Pos())
				name := fmt.Sprintf("func@%s:%d", filepath.Base(p.Filename), p.Line)
				b.addNode(&node{key: b.litKey(d), name: name, body: d.Body,
					pos: d.Body.Pos(), end: d.Body.End(), retsErr: returnsError(b.pkg.Info.TypeOf(d))})
			}
			return true
		})
	}
	sort.Slice(b.nodes, func(i, j int) bool { return b.nodes[i].pos < b.nodes[j].pos })
}

func (b *builder) addNode(n *node) {
	b.nodes = append(b.nodes, n)
	b.byKey[n.key] = n
}

func returnsError(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// enclosing returns the innermost node whose body spans pos.
func (b *builder) enclosing(pos token.Pos) *node {
	var best *node
	for _, n := range b.nodes {
		if n.pos <= pos && pos < n.end {
			if best == nil || (n.pos >= best.pos && n.end <= best.end) {
				best = n
			}
		}
	}
	return best
}

// funcValueKey resolves an expression that denotes a function value — a
// named function, a method value, or a function literal — to its key.
func (b *builder) funcValueKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.litKey(e), true
	case *ast.Ident:
		if fn, ok := b.pkg.Info.Uses[e].(*types.Func); ok {
			return ObjectKey(fn), true
		}
	case *ast.SelectorExpr:
		if fn, ok := b.pkg.Info.Uses[e.Sel].(*types.Func); ok && !isInterfaceMethod(fn) {
			return ObjectKey(fn), true
		}
	}
	return "", false
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// collectBindings records every package-local assignment of a function
// value to a variable or struct field: `h.fn = helper`, `var f = helper`,
// `T{fn: helper}`. Indirect calls through those objects later resolve to
// the union of everything assigned.
func (b *builder) collectBindings() {
	b.bindings = make(map[types.Object][]string)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		key, ok := b.funcValueKey(rhs)
		if !ok {
			return
		}
		var obj types.Object
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj = b.pkg.Info.Defs[l]
			if obj == nil {
				obj = b.pkg.Info.Uses[l]
			}
		case *ast.SelectorExpr:
			obj = b.pkg.Info.Uses[l.Sel]
		}
		if v, ok := obj.(*types.Var); ok {
			b.bindings[v] = append(b.bindings[v], key)
		}
	}
	for _, f := range b.pkg.Files {
		ast.Inspect(f, func(an ast.Node) bool {
			switch s := an.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						bind(s.Lhs[i], s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i := range s.Names {
						bind(s.Names[i], s.Values[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range s.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := b.pkg.Info.Uses[id].(*types.Var); ok {
								if key, ok2 := b.funcValueKey(kv.Value); ok2 {
									b.bindings[v] = append(b.bindings[v], key)
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	//lint:allow mapiter per-key normalization of each binding list; no cross-key state
	for obj, keys := range b.bindings {
		sort.Strings(keys)
		b.bindings[obj] = dedupStrings(keys)
	}
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// resolveCalls walks every node body and resolves each call expression to
// a sorted set of callee keys: static function and method calls directly,
// indirect calls through the binding map, interface calls through the
// package-local implementing types (class-hierarchy style).
func (b *builder) resolveCalls() {
	for _, n := range b.nodes {
		n := n
		ast.Inspect(n.body, func(an ast.Node) bool {
			if lit, ok := an.(*ast.FuncLit); ok && lit.Body != n.body {
				// The literal is its own node; its calls belong to it.
				return false
			}
			call, ok := an.(*ast.CallExpr)
			if !ok {
				return true
			}
			callees := b.calleeKeys(call)
			if len(callees) > 0 {
				sort.Strings(callees)
				n.calls = append(n.calls, callSite{call: call, callees: dedupStrings(callees)})
			}
			return true
		})
	}
}

func (b *builder) calleeKeys(call *ast.CallExpr) []string {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) wraps the callee in an index
	// expression; the identifier still resolves through Uses.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	// Type conversions are not calls.
	if tv, ok := b.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		return []string{b.litKey(f)}
	case *ast.Ident:
		switch obj := b.pkg.Info.Uses[f].(type) {
		case *types.Func:
			return []string{ObjectKey(obj)}
		case *types.Var:
			return b.bindings[obj]
		}
	case *ast.SelectorExpr:
		switch obj := b.pkg.Info.Uses[f.Sel].(type) {
		case *types.Func:
			if isInterfaceMethod(obj) {
				return b.chaTargets(obj)
			}
			return []string{ObjectKey(obj)}
		case *types.Var:
			return b.bindings[obj]
		}
	}
	return nil
}

// chaTargets resolves an interface method call to the matching method of
// every named type in this package that implements the interface — the
// conservative "method sets" leg of the call graph.
func (b *builder) chaTargets(m *types.Func) []string {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	scope := b.pkg.Pkg.Scope()
	var keys []string
	names := scope.Names() // sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, b.pkg.Pkg, m.Name())
		if fn, ok := obj.(*types.Func); ok {
			keys = append(keys, ObjectKey(fn))
		}
	}
	return keys
}

// seed attaches collector origins to their enclosing functions, skipping
// origins a //lint:allow directive covers (suppression at the origin kills
// the fact for every transitive caller).
func (b *builder) seed(collectors []Collector) {
	var origins []Origin
	for _, c := range collectors {
		if c != nil {
			origins = append(origins, c(b.pkg)...)
		}
	}
	sort.Slice(origins, func(i, j int) bool {
		if origins[i].Pos != origins[j].Pos {
			return origins[i].Pos < origins[j].Pos
		}
		return origins[i].Kind < origins[j].Kind
	})
	for _, o := range origins {
		n := b.enclosing(o.Pos)
		if n == nil {
			continue // package-level initializer expression
		}
		if o.Kind.needsErrorReturn() && !n.retsErr {
			continue
		}
		if b.suppress(o.Kind.Analyzer(), o.Pos) {
			continue
		}
		b.store.put(n.key, Fact{
			Kind:   o.Kind,
			Chain:  []string{n.name},
			Origin: o.Desc + " at " + ShortPos(b.pkg.Fset.Position(o.Pos)),
		})
	}
}

// propagate runs the in-package fixed point: a function adopts each fact
// kind carried by anything it calls (cross-package callees already carry
// their final facts, since packages are analyzed in dependency order).
// Deterministic node and call order makes the winning chain stable.
func (b *builder) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range b.nodes {
			for _, cs := range n.calls {
				for _, calleeKey := range cs.callees {
					if calleeKey == n.key {
						continue // direct recursion adds nothing
					}
					for k := Kind(0); k < numKinds; k++ {
						f, ok := b.store.get(calleeKey, k)
						if !ok {
							continue
						}
						if _, have := b.store.get(n.key, k); have {
							continue
						}
						if k.needsErrorReturn() && !n.retsErr {
							continue
						}
						if b.suppress(k.Analyzer(), cs.call.Pos()) {
							continue
						}
						chain := append([]string{n.name}, f.Chain...)
						if b.store.put(n.key, Fact{Kind: k, Chain: chain, Origin: f.Origin}) {
							changed = true
						}
					}
				}
			}
		}
	}
}

// ShortPos renders a position as the last two path segments plus line —
// "routing/destroot.go:315" — keeping chains readable and test output
// independent of absolute checkout paths.
func ShortPos(p token.Position) string {
	dir := filepath.Base(filepath.Dir(p.Filename))
	if dir == "." || dir == string(filepath.Separator) {
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	return fmt.Sprintf("%s/%s:%d", dir, filepath.Base(p.Filename), p.Line)
}
