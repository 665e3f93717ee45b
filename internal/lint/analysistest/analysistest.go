// Package analysistest runs one analyzer over GOPATH-style testdata
// packages and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest closely enough that the
// analyzer tests would port to the upstream harness unchanged.
//
// Expectations are written on the line the diagnostic is reported at:
//
//	time.Sleep(d) // want `wall clock`
//
// The argument is a regular expression in backquotes or a double-quoted Go
// string; several patterns on one line expect several diagnostics. Patterns
// match the rendered diagnostic — message plus " (via a → b → ...)" call
// chain — so transitive findings can assert their chains. The harness
// applies //lint:allow filtering before matching, so testdata can assert
// both that a directive suppresses a finding and that the finding fires
// without it.
//
// Before the analyzer runs, the harness replays the whole suite's fact
// collectors over the target package's source-root dependencies in
// dependency order, exactly as the driver does over real imports: a
// testdata package under det/ importing a helper package sees the helper's
// propagated facts.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
	"repro/internal/lint/loader"
)

// Result is the outcome of analyzing one testdata package.
type Result struct {
	Pkg         *loader.Package
	Diagnostics []analysis.Diagnostic
}

// Run loads each named package from dir/src/<path>, applies a with the
// fact layer primed (a program-level analyzer sees the named packages as
// the whole program), filters through //lint:allow, and reports
// mismatches against // want comments as test errors. It returns the per-package
// results so tests can make extra assertions (e.g. on suggested fixes).
// It is the harness every analyzer test calls, so only tests use it.
//
//lint:allow deadexport the harness every analyzer test (TestWallclock, TestMapIter, TestDeadExport, ...) calls
func Run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) []Result {
	t.Helper()
	var collectors []facts.Collector
	for _, az := range lint.Analyzers() {
		collectors = append(collectors, az.FactCollector)
	}
	known := lint.Names()
	var passes []*analysis.Pass
	var results []Result
	indexes := make([]*allow.Index, len(paths))
	diags := make([][]analysis.Diagnostic, len(paths))
	for i, path := range paths {
		pkg, deps, err := loader.LoadSource(loader.Config{
			SrcRoots: []loader.SrcRoot{{Dir: dir + "/src"}},
		}, path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		store := facts.NewStore()
		var view *facts.View
		for _, p := range append(deps, pkg) {
			p := p
			pix := allow.Build(p.Fset, p.Files, known)
			v := facts.Analyze(
				&facts.PkgInfo{Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info},
				store, collectors,
				func(name string, pos token.Pos) bool { return pix.Allowed(name, p.Fset, pos) },
			)
			if p == pkg {
				view, indexes[i] = v, pix
			}
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     view,
			Report:    func(d analysis.Diagnostic) { diags[i] = append(diags[i], d) },
		}
		if a.Run != nil {
			if _, err := a.Run(pass); err != nil {
				t.Fatalf("%s: running %s: %v", path, a.Name, err)
			}
		}
		passes, results = append(passes, pass), append(results, Result{Pkg: pkg})
	}
	if a.RunProgram != nil {
		if err := a.RunProgram(passes); err != nil {
			t.Fatalf("running %s: %v", a.Name, err)
		}
	}
	for i, r := range results {
		results[i].Diagnostics = indexes[i].Filter(a.Name, r.Pkg.Fset, diags[i])
		for _, msg := range diffWants(r.Pkg.Fset, a.Name, collectWants(t, r.Pkg), results[i].Diagnostics) {
			t.Errorf("%s", msg)
		}
	}
	return results
}

// want is one expectation: a pattern at a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")

// collectWants parses the // want comments of every file in pkg.
func collectWants(t *testing.T, pkg *loader.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats, err := parsePatterns(m[1])
				if err != nil {
					t.Errorf("%s: bad want comment: %v", pos, err)
					continue
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, p, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	return wants
}

// diffWants matches diagnostics against wants one-to-one and returns the
// mismatches as ready-to-report messages. Matching is on the rendered
// diagnostic (message + call chain). A missed expectation names the
// analyzer and the nearest actual finding in the same file, which turns
// "got none" into an actionable off-by-one-line or wrong-regexp hint.
func diffWants(fset *token.FileSet, name string, wants []*want, diags []analysis.Diagnostic) []string {
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	var msgs []string
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.re == nil || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Render()) {
				w.re = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			msgs = append(msgs, fmt.Sprintf("%s: unexpected diagnostic: %s: %s", pos, name, d.Render()))
		}
	}
	for _, w := range wants {
		if w.re == nil {
			continue
		}
		msg := fmt.Sprintf("%s:%d: expected %s diagnostic matching %q, got none", w.file, w.line, name, w.raw)
		if near, ok := nearest(fset, w, diags); ok {
			msg += "; nearest " + name + " finding: " + near
		}
		msgs = append(msgs, msg)
	}
	return msgs
}

// nearest finds the diagnostic in the want's file closest to its line.
func nearest(fset *token.FileSet, w *want, diags []analysis.Diagnostic) (string, bool) {
	best, bestDist := "", 0
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if pos.Filename != w.file {
			continue
		}
		dist := pos.Line - w.line
		if dist < 0 {
			dist = -dist
		}
		if best == "" || dist < bestDist {
			best = fmt.Sprintf("line %d: %s", pos.Line, d.Render())
			bestDist = dist
		}
	}
	return best, best != ""
}

// parsePatterns splits `a` "b" sequences into their string values.
func parsePatterns(s string) ([]string, error) {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquote in %q", s)
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Find the closing quote with Go unquoting.
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			v, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			pats = append(pats, v)
			s = strings.TrimSpace(s[end+1:])
		default:
			return nil, fmt.Errorf("want pattern must be backquoted or quoted, got %q", s)
		}
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return pats, nil
}
