// Package deadexport reports exported names that only tests use, in the
// packages no other module can import: a path with an internal element,
// or package main (so the public selfmaint API is exempt). A name is live
// when live code refers to it — a non-test file of the module, outside
// the declaration of a dead exported name, or a non-test file of a module
// nested under the module root (bench/), type-checked against the loaded
// packages — or, for a method, when an interface of the loaded packages'
// import closure has a method of the same name and signature (the call
// may be dynamic). Struct fields are out of scope. The driver runs this
// program-level pass only when it loaded the whole module. A name a test
// needs as a reference keeps a //lint:allow deadexport directive naming
// the test; what a kept name refers to is live.
package deadexport

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
)

const name = "deadexport"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "report exported names of internal and main packages that only tests use\n\n" +
		"Delete such a name, or keep it with a //lint:allow deadexport directive " +
		"naming the test that needs it.",
	RunProgram: run,
}

// key names a package-level object, or a method when recv is set, the
// same way whichever importer loaded it.
type key struct{ pkg, recv, name string }

// graph holds the live names and, for each exported name, what its
// declaration refers to: live only if the name is.
type graph struct {
	closed map[string]bool
	live   map[key]bool
	edges  map[key][]key
	work   []key
}

func run(passes []*analysis.Pass) error {
	g := &graph{closed: make(map[string]bool), live: make(map[key]bool), edges: make(map[key][]key)}
	for _, p := range passes {
		if p.Pkg.Name() == "main" || strings.Contains("/"+p.Pkg.Path()+"/", "/internal/") {
			g.closed[p.Pkg.Path()] = true
		}
	}
	type candidate struct {
		pass *analysis.Pass
		obj  types.Object
		key  key
		kept bool
	}
	var cands []candidate
	for _, p := range passes {
		g.refs(p.TypesInfo, p.Files, g.closed[p.Pkg.Path()])
		if !g.closed[p.Pkg.Path()] {
			continue
		}
		ix := allow.Build(p.Fset, p.Files, map[string]bool{name: true})
		add := func(obj types.Object, k key) {
			cands = append(cands, candidate{p, obj, k, ix.Allowed(name, p.Fset, obj.Pos())})
		}
		for _, id := range p.Pkg.Scope().Names() {
			obj := p.Pkg.Scope().Lookup(id)
			if !obj.Exported() {
				continue
			}
			add(obj, key{p.Pkg.Path(), "", id})
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							add(m, key{p.Pkg.Path(), id, m.Name()})
						}
					}
				}
			}
		}
	}
	loaded, dynamic := closure(passes)
	selected, err := g.nestedRefs(passes, loaded)
	if err != nil {
		return err
	}
	for _, c := range cands {
		if c.key.recv != "" && (selected[c.key.name] || dynamic[sigKey(c.key.name, c.obj.Type().(*types.Signature))]) {
			g.mark(c.key)
		}
	}
	g.propagate()
	// A kept name is still reported, for the driver to suppress.
	var dead []candidate
	for _, c := range cands {
		if !g.live[c.key] {
			dead = append(dead, c)
			if c.kept {
				g.mark(c.key)
			}
		}
	}
	g.propagate()
	for _, c := range dead {
		if c.kept || !g.live[c.key] {
			c.pass.Reportf(c.obj.Pos(), "exported %s has no reference outside tests; delete it, or keep it with //lint:allow %s naming the test that needs it",
				strings.TrimPrefix(c.key.recv+"."+c.key.name, "."), name)
		}
	}
	return nil
}

// keyOf returns the key of a package-level object or method; fields and
// function-local objects have none.
func keyOf(obj types.Object) (key, bool) {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Origin().Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return key{}, false
		}
		return key{fn.Pkg().Path(), named.Origin().Obj().Name(), fn.Name()}, true
	}
	return key{obj.Pkg().Path(), "", obj.Name()}, obj.Parent() == obj.Pkg().Scope()
}

func (g *graph) mark(k key) {
	if !g.live[k] {
		g.live[k] = true
		g.work = append(g.work, k)
	}
}

func (g *graph) propagate() {
	for len(g.work) > 0 {
		k := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, to := range g.edges[k] {
			g.mark(to)
		}
	}
}

// refs records what files refer to in closed packages. With owned set, a
// reference inside the declaration of an exported name is an edge from
// that name; every other reference is live.
func (g *graph) refs(info *types.Info, files []*ast.File, owned bool) {
	type span struct {
		pos, end token.Pos
		owner    key
	}
	var spans []span // exported declarations, in source order
	add := func(n ast.Node, id *ast.Ident) {
		if owned && id.IsExported() {
			if k, ok := keyOf(info.Defs[id]); ok && (k.recv == "" || token.IsExported(k.recv)) {
				spans = append(spans, span{n.Pos(), n.End(), k})
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				add(d, d.Name)
			} else if d, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s, s.Name)
					case *ast.ValueSpec:
						if len(s.Names) == 1 {
							add(s, s.Names[0])
						}
					}
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].pos < spans[j].pos })
	//lint:allow mapiter the loop only adds set members and edges, so visit order cannot reach a finding
	for ref, obj := range info.Uses {
		if obj.Pkg() == nil || !g.closed[obj.Pkg().Path()] || !obj.Exported() {
			continue
		}
		k, ok := keyOf(obj)
		if !ok {
			continue
		}
		switch i := sort.Search(len(spans), func(i int) bool { return spans[i].end > ref.Pos() }); {
		case i == len(spans) || spans[i].pos > ref.Pos():
			g.mark(k)
		case spans[i].owner != k:
			g.edges[spans[i].owner] = append(g.edges[spans[i].owner], k)
		}
	}
}

// closure maps every package path the loaded packages can see to one
// copy — the imported one, which importers share, else the loaded one —
// and returns the signature keys of error's method and of the methods of
// every package-level interface among them.
func closure(passes []*analysis.Pass) (map[string]*types.Package, map[string]bool) {
	pkgs := make(map[string]*types.Package)
	errorSig := types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0).Type()
	sigs := map[string]bool{sigKey("Error", errorSig.(*types.Signature)): true}
	add := func(pkg *types.Package) {
		pkgs[pkg.Path()] = pkg
		for _, id := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(id).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					sigs[sigKey(it.Method(i).Name(), it.Method(i).Type().(*types.Signature))] = true
				}
			}
		}
	}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if pkgs[imp.Path()] == nil {
				add(imp)
				visit(imp)
			}
		}
	}
	for _, p := range passes {
		visit(p.Pkg)
	}
	for _, p := range passes {
		if pkgs[p.Pkg.Path()] == nil {
			add(p.Pkg)
		}
	}
	return pkgs, sigs
}

// nestedRefs marks what the non-test files of each module nested under
// the loaded module's root refer to, type-checking each directory against
// the loaded packages. It returns the names of the selectors it could not
// resolve, each a use of every method so named.
func (g *graph) nestedRefs(passes []*analysis.Pass, loaded map[string]*types.Package) (map[string]bool, error) {
	selected := make(map[string]bool)
	root := moduleRoot(passes)
	if root == "" {
		return selected, nil
	}
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // by directory
	var modules, dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		base, dir := d.Name(), filepath.Dir(path)
		switch {
		case err != nil || path == root:
			return err
		case d.IsDir():
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if fileExists(filepath.Join(path, "go.mod")) {
				modules = append(modules, path+string(filepath.Separator))
			}
		case strings.HasSuffix(base, ".go") && !strings.HasSuffix(base, "_test.go"):
			for _, m := range modules {
				if strings.HasPrefix(path, m) {
					f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
					if err == nil && files[dir] == nil {
						dirs = append(dirs, dir)
					}
					files[dir] = append(files[dir], f)
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg := loaded[path]; pkg != nil {
				return pkg, nil
			}
			return nil, fmt.Errorf("%s is outside the loaded import closure", path)
		}),
		Error: func(error) {}, // an unresolved selector falls back to its name
	}
	for _, dir := range dirs {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		_, _ = conf.Check(dir, fset, files[dir], info)
		g.refs(info, files[dir], false)
		for _, f := range files[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == nil {
					selected[sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	return selected, nil
}

// moduleRoot returns the directory of the nearest go.mod at or above the
// loaded packages, or "".
func moduleRoot(passes []*analysis.Pass) string {
	for _, p := range passes {
		for _, f := range p.Files {
			dir, err := filepath.Abs(p.Fset.File(f.Pos()).Name())
			for err == nil && dir != filepath.Dir(dir) {
				if dir = filepath.Dir(dir); fileExists(filepath.Join(dir, "go.mod")) {
					return dir
				}
			}
		}
	}
	return ""
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// sigKey renders a method's name and signature without parameter names or
// receiver, qualifying types by import path, so that one signature loaded
// by different importers renders the same.
func sigKey(name string, sig *types.Signature) string {
	var b bytes.Buffer
	b.WriteString(name)
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			types.WriteType(&b, t.At(i).Type(), (*types.Package).Path)
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
