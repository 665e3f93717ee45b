// Package driver runs the selfmaintlint analyzer suite over a set of
// packages: it loads and type-checks them, computes and propagates
// interprocedural facts in dependency order, applies //lint:allow
// suppression, and renders the surviving findings as text or JSON.
// cmd/selfmaintlint is a thin flag wrapper around Run; the analysistest
// harness mirrors the same fact plumbing for single testdata packages.
package driver

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/detsort"
	"repro/internal/lint"
	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
	"repro/internal/lint/loader"
	"repro/internal/scenario"
)

// Options configures one lint run.
type Options struct {
	// Patterns are `go list` package patterns (default ./...), loaded
	// relative to Dir. Facts flow between packages that are both matched;
	// run over ./... for full interprocedural coverage.
	Patterns []string
	Dir      string
	// SrcDir/SrcPkgs switch to GOPATH-style source-root loading
	// (SrcDir/<import path>), used by the driver's own tests; Patterns is
	// ignored when SrcPkgs is non-empty.
	SrcDir  string
	SrcPkgs []string
	// Fix applies each finding's first suggested fix in place.
	Fix bool
	// Stale reports //lint:allow directives that suppressed nothing.
	Stale bool
	// JSON renders findings as a JSON array instead of text lines.
	JSON bool
	// BenchJSON upserts a "lint" experiment entry with this run's wall time
	// into the named BENCH artifact, so cmd/benchdiff gates lint-time
	// regressions alongside the simulation experiments.
	BenchJSON string
	Verbose   bool
	Stdout    io.Writer
	Stderr    io.Writer
}

// Finding is one reported diagnostic, shaped for the -json output.
type Finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`

	pos  token.Position
	diag analysis.Diagnostic
}

func newFinding(fset *token.FileSet, analyzer string, d analysis.Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	return Finding{
		File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Analyzer: analyzer, Message: d.Message, Chain: d.Chain,
		pos: pos, diag: d,
	}
}

// Run executes the suite and returns the process exit code: 0 clean, 1
// with findings, 2 on load or internal errors.
func Run(opts Options) int {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	start := time.Now() //lint:allow wallclock the lint driver itself measures real wall time for the bench artifact

	pkgs, exit := load(opts)
	if exit != 0 {
		return exit
	}

	analyzers := lint.Analyzers()
	known := lint.Names()
	var collectors []facts.Collector
	for _, a := range analyzers {
		collectors = append(collectors, a.FactCollector)
	}

	store := facts.NewStore()

	var findings []Finding
	indexes := make([]*allow.Index, len(pkgs))
	for i, pkg := range pkgs {
		if opts.Verbose {
			fmt.Fprintf(opts.Stderr, "selfmaintlint: %s\n", pkg.Path)
		}
		ix := allow.Build(pkg.Fset, pkg.Files, known)
		indexes[i] = ix
		for _, p := range ix.Problems {
			findings = append(findings, newFinding(pkg.Fset, "allow", p))
		}

		pkg := pkg
		view := facts.Analyze(
			&facts.PkgInfo{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info},
			store, collectors,
			func(name string, pos token.Pos) bool { return ix.Allowed(name, pkg.Fset, pos) },
		)

		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			var diags []analysis.Diagnostic
			if _, err := a.Run(newPass(a, pkg, view, &diags)); err != nil {
				fmt.Fprintf(opts.Stderr, "selfmaintlint: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
			for _, d := range ix.Filter(a.Name, pkg.Fset, diags) {
				findings = append(findings, newFinding(pkg.Fset, a.Name, d))
			}
		}
	}

	if wholeProgram(opts) {
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			diags := make([][]analysis.Diagnostic, len(pkgs))
			passes := make([]*analysis.Pass, len(pkgs))
			for i, pkg := range pkgs {
				passes[i] = newPass(a, pkg, nil, &diags[i])
			}
			if err := a.RunProgram(passes); err != nil {
				fmt.Fprintf(opts.Stderr, "selfmaintlint: %s: %v\n", a.Name, err)
				return 2
			}
			for i, pkg := range pkgs {
				for _, d := range indexes[i].Filter(a.Name, pkg.Fset, diags[i]) {
					findings = append(findings, newFinding(pkg.Fset, a.Name, d))
				}
			}
		}
	}

	// Staleness is known only once every analyzer, program-level ones
	// included, has had its chance to consume a directive.
	if opts.Stale {
		for i, pkg := range pkgs {
			for _, d := range indexes[i].Stale() {
				findings = append(findings, newFinding(pkg.Fset, "allow", analysis.Diagnostic{
					Pos: d.Pos,
					Message: fmt.Sprintf("stale //lint:allow %s directive: it suppressed no finding and no fact; remove it (reason was: %s)",
						d.Analyzer, d.Reason),
				}))
			}
		}
	}

	if opts.Fix {
		findings = applyFixes(opts, findings)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})

	if opts.BenchJSON != "" {
		elapsed := time.Since(start) //lint:allow wallclock the lint driver itself measures real wall time for the bench artifact
		// The lint run's wall time is the "lint" experiment, next to the
		// simulation experiments in the bench artifact.
		e := scenario.ExperimentBench{ID: "lint", Workers: 1, WallSeconds: elapsed.Seconds()}
		if err := scenario.UpsertBench(opts.BenchJSON, e); err != nil {
			fmt.Fprintf(opts.Stderr, "selfmaintlint: -bench-json: %v\n", err)
			return 2
		}
	}

	if opts.JSON {
		out, err := json.MarshalIndent(findingsOrEmpty(findings), "", "  ")
		if err != nil {
			fmt.Fprintf(opts.Stderr, "selfmaintlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(opts.Stdout, "%s\n", out)
	} else {
		for _, f := range findings {
			fmt.Fprintf(opts.Stdout, "%s: [%s] %s\n", f.pos, f.Analyzer, f.diag.Render())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(opts.Stderr, "selfmaintlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// newPass binds analyzer a to one package, appending its reports to sink.
func newPass(a *analysis.Analyzer, pkg *loader.Package, view *facts.View, sink *[]analysis.Diagnostic) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     view,
		Report:    func(d analysis.Diagnostic) { *sink = append(*sink, d) },
	}
}

// wholeProgram reports whether the run loaded the whole module: the
// testdata mode, or ./... (the default) from the module root.
func wholeProgram(opts Options) bool {
	_, err := os.Stat(filepath.Join(opts.Dir, "go.mod"))
	patterns := strings.Join(opts.Patterns, " ")
	return len(opts.SrcPkgs) > 0 || err == nil && (patterns == "" || patterns == "./...")
}

// findingsOrEmpty keeps the JSON output an array (not null) when clean.
func findingsOrEmpty(fs []Finding) []Finding {
	if fs == nil {
		return []Finding{}
	}
	return fs
}

// load resolves the run's packages: go list patterns by default, explicit
// source roots for the driver's own testdata.
func load(opts Options) ([]*loader.Package, int) {
	if len(opts.SrcPkgs) > 0 {
		cfg := loader.Config{SrcRoots: []loader.SrcRoot{{Dir: opts.SrcDir}}}
		var pkgs []*loader.Package
		seen := make(map[string]bool)
		for _, path := range opts.SrcPkgs {
			pkg, deps, err := loader.LoadSource(cfg, path)
			if err != nil {
				fmt.Fprintf(opts.Stderr, "selfmaintlint: %v\n", err)
				return nil, 2
			}
			// Dependencies participate in fact computation (and reporting:
			// a violation in a helper package is still a violation).
			for _, p := range append(deps, pkg) {
				if !seen[p.Path] {
					seen[p.Path] = true
					pkgs = append(pkgs, p)
				}
			}
		}
		return pkgs, 0
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(loader.Config{Dir: opts.Dir}, patterns...)
	if err != nil {
		fmt.Fprintf(opts.Stderr, "selfmaintlint: %v\n", err)
		return nil, 2
	}
	return pkgs, 0
}

// applyFixes rewrites source files with each finding's first suggested fix
// and returns the findings that had none. Edits are grouped per file and
// applied back-to-front so earlier offsets stay valid; overlapping edits
// keep only the first (in position order) to stay safe.
func applyFixes(opts Options, findings []Finding) []Finding {
	type edit struct {
		start, end int
		text       []byte
	}
	byFile := make(map[string][]edit)
	var rest []Finding
	fixed := 0
	for _, f := range findings {
		if len(f.diag.SuggestedFixes) == 0 {
			rest = append(rest, f)
			continue
		}
		sf := f.diag.SuggestedFixes[0]
		ok := true
		var edits []edit
		for _, te := range sf.TextEdits {
			// Positions translate to file offsets via the reported position
			// base: Pos/End are in the same file as the finding.
			startPos := f.pos.Offset + int(te.Pos-f.diag.Pos)
			endPos := startPos + int(te.End-te.Pos)
			if startPos < 0 || endPos < startPos {
				ok = false
				break
			}
			edits = append(edits, edit{start: startPos, end: endPos, text: te.NewText})
		}
		if !ok {
			rest = append(rest, f)
			continue
		}
		byFile[f.pos.Filename] = append(byFile[f.pos.Filename], edits...)
		fixed++
	}
	for _, file := range detsort.Keys(byFile) {
		edits := byFile[file]
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(opts.Stderr, "selfmaintlint: -fix: %v\n", err)
			os.Exit(2)
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		lastStart := len(src) + 1
		for _, e := range edits {
			if e.end > lastStart || e.end > len(src) {
				continue // overlapping or out-of-range edit: skip
			}
			src = append(src[:e.start], append(e.text, src[e.end:]...)...)
			lastStart = e.start
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			fmt.Fprintf(opts.Stderr, "selfmaintlint: -fix: %v\n", err)
			os.Exit(2)
		}
	}
	if fixed > 0 {
		fmt.Fprintf(opts.Stderr, "selfmaintlint: applied %d fix(es); re-run to verify\n", fixed)
	}
	return rest
}
