package allow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
)

var known = map[string]bool{"wallclock": true, "mapiter": true}

// build parses src as one file and indexes its directives.
func build(t *testing.T, src string) (*token.FileSet, *allow.Index) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, allow.Build(fset, []*ast.File{f}, known)
}

func TestWellFormed(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow wallclock bench timing is wall time by definition
}
`
	_, ix := build(t, src)
	if len(ix.Problems) != 0 {
		t.Fatalf("problems: %v", ix.Problems)
	}
	if len(ix.Directives) != 1 {
		t.Fatalf("got %d directives, want 1", len(ix.Directives))
	}
	d := ix.Directives[0]
	if d.Analyzer != "wallclock" || d.Reason != "bench timing is wall time by definition" {
		t.Fatalf("parsed %q / %q", d.Analyzer, d.Reason)
	}
}

func TestCoversOwnAndNextLine(t *testing.T) {
	src := `package p

func f() {
	//lint:allow wallclock standalone directive above the line
	_ = 1
	_ = 2
}
`
	fset, ix := build(t, src)
	at := func(line int) token.Pos { return lineStart(fset, line) }
	if !ix.Allowed("wallclock", fset, at(4)) {
		t.Error("directive does not cover its own line")
	}
	if !ix.Allowed("wallclock", fset, at(5)) {
		t.Error("directive does not cover the next line")
	}
	if ix.Allowed("wallclock", fset, at(6)) {
		t.Error("directive leaks past the next line")
	}
	if ix.Allowed("mapiter", fset, at(5)) {
		t.Error("directive suppresses an analyzer it does not name")
	}
}

func TestMultipleDirectivesOneLine(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow wallclock timing //lint:allow mapiter unordered sink
}
`
	_, ix := build(t, src)
	// go/ast keeps the trailing comment as ONE comment whose text contains
	// both markers; only the leading directive parses. That is deliberate:
	// one line, one argued suppression.
	if len(ix.Directives) != 1 {
		t.Fatalf("got %d directives, want 1 (second marker is part of the first reason)", len(ix.Directives))
	}
	d := ix.Directives[0]
	if d.Analyzer != "wallclock" {
		t.Fatalf("parsed analyzer %q", d.Analyzer)
	}
	if !strings.Contains(d.Reason, "mapiter") {
		t.Fatalf("reason %q should swallow the rest of the line", d.Reason)
	}
	// Two separate comment groups on consecutive lines DO stack coverage.
	src2 := `package p

func f() {
	//lint:allow wallclock timing
	//lint:allow mapiter unordered sink
	_ = 1
}
`
	fset2, ix2 := build(t, src2)
	if len(ix2.Directives) != 2 {
		t.Fatalf("got %d directives, want 2", len(ix2.Directives))
	}
	if !ix2.Allowed("wallclock", fset2, lineStart(fset2, 5)) || !ix2.Allowed("mapiter", fset2, lineStart(fset2, 6)) {
		t.Error("stacked directives do not cover their lines")
	}
}

func TestMalformed(t *testing.T) {
	src := `package p

//lint:allow
//lint:allow wallclock
//lint:allow nosuchanalyzer because reasons
//lint:allowfoo not ours at all
var x = 1
`
	_, ix := build(t, src)
	if len(ix.Directives) != 0 {
		t.Fatalf("malformed directives were indexed: %+v", ix.Directives[0])
	}
	var msgs []string
	for _, p := range ix.Problems {
		msgs = append(msgs, p.Message)
	}
	wantSubstr := []string{
		"missing analyzer name",
		"needs a reason",
		`unknown analyzer "nosuchanalyzer"`,
	}
	if len(msgs) != len(wantSubstr) {
		t.Fatalf("got %d problems %v, want %d", len(msgs), msgs, len(wantSubstr))
	}
	for _, want := range wantSubstr {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no problem mentions %q in %v", want, msgs)
		}
	}
}

func TestFilterMarksUsedAndStale(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow wallclock used by the diagnostic below
	_ = 2 //lint:allow mapiter never fires
}
`
	fset, ix := build(t, src)
	diags := []analysis.Diagnostic{{Pos: lineStart(fset, 4), Message: "tick"}}
	kept := ix.Filter("wallclock", fset, diags)
	if len(kept) != 0 {
		t.Fatalf("diagnostic not suppressed: %v", kept)
	}
	stale := ix.Stale()
	if len(stale) != 1 || stale[0].Analyzer != "mapiter" {
		t.Fatalf("stale = %+v, want the unused mapiter directive", stale)
	}
}

// lineStart returns a Pos on the given 1-based line of the single test file.
func lineStart(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}
