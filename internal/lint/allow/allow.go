// Package allow implements the //lint:allow suppression directive shared by
// the selfmaintlint driver and the analysistest harness.
//
// Syntax:
//
//	//lint:allow <analyzer> <reason...>
//
// A directive suppresses diagnostics of the named analyzer on the
// directive's own line and on the line immediately below it, so it works
// both as a trailing comment on the offending line and as a standalone
// comment line above it. The reason is mandatory: an allow that does not
// say why it is safe is itself a finding.
//
// A directive also suppresses the named analyzer's interprocedural facts
// at the same lines — at a fact origin it stops the fact from ever being
// created, and at a call site it prunes propagation through that edge —
// so one reasoned allow silences the whole subtree of transitive findings
// it argues for. Every suppression (diagnostic or fact) marks the
// directive used; cmd/selfmaintlint -stale reports the ones that never
// fire, so dead suppressions cannot accumulate.
package allow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// Prefix is the directive marker. Like //go: directives there is no space
// after the slashes.
const Prefix = "//lint:allow"

// Directive is one well-formed //lint:allow, tracked for -stale.
type Directive struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
	File     string
	Line     int
	Used     bool
}

// Index records every well-formed directive of one package and every
// malformed one (as a ready-to-report diagnostic).
type Index struct {
	// lines maps analyzer name -> filename -> line -> directives covering
	// that line (a directive covers its own line and the next).
	lines map[string]map[string]map[int][]*Directive
	// Directives lists every well-formed directive in file order.
	Directives []*Directive
	// Problems are malformed or unknown-analyzer directives.
	Problems []analysis.Diagnostic
}

// Build scans the comments of files for directives. known is the set of
// valid analyzer names; a directive naming anything else is a problem, so
// typos cannot silently suppress nothing.
func Build(fset *token.FileSet, files []*ast.File, known map[string]bool) *Index {
	ix := &Index{lines: make(map[string]map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, Prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, Prefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // some other //lint:allowfoo token, not ours
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					ix.problemf(c.Pos(), "malformed %s directive: missing analyzer name", Prefix)
				case !known[fields[0]]:
					ix.problemf(c.Pos(), "%s names unknown analyzer %q", Prefix, fields[0])
				case len(fields) == 1:
					ix.problemf(c.Pos(), "%s %s needs a reason", Prefix, fields[0])
				default:
					pos := fset.Position(c.Pos())
					d := &Directive{
						Analyzer: fields[0],
						Reason:   strings.Join(fields[1:], " "),
						Pos:      c.Pos(),
						File:     pos.Filename,
						Line:     pos.Line,
					}
					ix.Directives = append(ix.Directives, d)
					ix.add(d, pos.Line)
					ix.add(d, pos.Line+1)
				}
			}
		}
	}
	return ix
}

func (ix *Index) problemf(pos token.Pos, format string, args ...any) {
	ix.Problems = append(ix.Problems, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (ix *Index) add(d *Directive, line int) {
	byFile := ix.lines[d.Analyzer]
	if byFile == nil {
		byFile = make(map[string]map[int][]*Directive)
		ix.lines[d.Analyzer] = byFile
	}
	lines := byFile[d.File]
	if lines == nil {
		lines = make(map[int][]*Directive)
		byFile[d.File] = lines
	}
	lines[line] = append(lines[line], d)
}

// Allowed reports whether a diagnostic from analyzer name at pos is
// suppressed by a directive, marking every covering directive used.
func (ix *Index) Allowed(name string, fset *token.FileSet, pos token.Pos) bool {
	byFile := ix.lines[name]
	if byFile == nil {
		return false
	}
	p := fset.Position(pos)
	ds := byFile[p.Filename][p.Line]
	for _, d := range ds {
		d.Used = true
	}
	return len(ds) > 0
}

// Filter returns the diagnostics of analyzer name not suppressed by ix.
func (ix *Index) Filter(name string, fset *token.FileSet, diags []analysis.Diagnostic) []analysis.Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !ix.Allowed(name, fset, d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept
}

// Stale returns the directives that never suppressed a diagnostic or a
// fact during the run, in file order — dead weight the -stale gate fails
// the build on.
func (ix *Index) Stale() []*Directive {
	var out []*Directive
	for _, d := range ix.Directives {
		if !d.Used {
			out = append(out, d)
		}
	}
	return out
}
