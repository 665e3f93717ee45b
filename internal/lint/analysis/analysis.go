// Package analysis is a minimal, offline reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named check,
// a Pass hands it one type-checked package, and diagnostics optionally
// carry machine-applicable suggested fixes.
//
// The build environment for this repository is hermetic (no module proxy),
// so the real x/tools dependency cannot be fetched; this package keeps the
// same field names and shapes so the selfmaintlint analyzers can migrate to
// the upstream framework by swapping an import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/facts"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph help text; the first line is the summary.
	Doc string
	// Run, when non-nil, applies the analyzer to one package.
	Run func(*Pass) (any, error)
	// RunProgram, when non-nil, runs once after every package's Run, with
	// one pass (without facts) per package, and only when the run loaded
	// the whole module. Report each finding through its package's pass.
	RunProgram func([]*Pass) error
	// FactCollector, when non-nil, scans one package for the fact origins
	// this analyzer consumes transitively (see internal/lint/facts). The
	// driver runs every analyzer's collector over every package — in
	// dependency order, before any Run — so Run sees fully propagated
	// facts for the package's whole import cone.
	FactCollector facts.Collector
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer and one package. All fields
// are read-only to the analyzer except via Report.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the propagated interprocedural fact view of this package
	// (nil when the driver runs without the fact layer); analyzers use it
	// to surface violations reached only through transitive calls.
	Facts *facts.View
	// Report delivers one diagnostic. It is never nil.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportTransitive reports a diagnostic at a call site whose callee
// carries fact f: the message is the invariant, the chain walks from the
// enclosing function down to the origin site.
func (p *Pass) ReportTransitive(call *ast.CallExpr, f facts.Fact, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:     call.Pos(),
		End:     call.End(),
		Message: fmt.Sprintf(format, args...),
		Chain:   f.ChainWithOrigin(p.Facts.Caller(call)),
	})
}

// Diagnostic is one finding. End may be token.NoPos.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos
	Message string
	// Chain, when non-empty, is the call chain of a transitive finding:
	// enclosing function, intermediate callees, then the origin site
	// ("EvaluateInto", "helperX", "make at routing/foo.go:42"). Render
	// folds it into the human-readable message; -json keeps it structured.
	Chain          []string
	SuggestedFixes []SuggestedFix
}

// Render returns the full human-readable message, chain included.
func (d Diagnostic) Render() string {
	if len(d.Chain) == 0 {
		return d.Message
	}
	return d.Message + " (via " + strings.Join(d.Chain, " → ") + ")"
}

// SuggestedFix is one machine-applicable rewrite that resolves the
// diagnostic. Edits within one fix must not overlap.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
