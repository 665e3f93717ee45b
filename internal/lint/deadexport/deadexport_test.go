package deadexport_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/deadexport"
	"repro/internal/lint/driver"
)

// fixture is the testdata module: internal packages, a public package, a
// command, and a nested module that uses some names.
var fixture = []string{
	"det/deadexport/internal/dead",
	"det/deadexport/internal/user",
	"det/deadexport/public",
	"det/deadexport/cmd/tool",
}

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "testdata", deadexport.Analyzer, fixture...)
}

// lint runs the whole driver over the fixture and returns its text output.
func lint(t *testing.T, opts driver.Options) string {
	t.Helper()
	var out, errb bytes.Buffer
	opts.Stdout, opts.Stderr = &out, &errb
	if code := driver.Run(opts); code == 2 {
		t.Fatalf("driver failed: %s", errb.String())
	}
	return out.String()
}

func TestStaleAllowReported(t *testing.T) {
	out := lint(t, driver.Options{SrcDir: filepath.Join("testdata", "src"), SrcPkgs: fixture, Stale: true})
	// Only the allow on the live user.Walk is stale; the one that keeps
	// dead.Kept suppressed its finding.
	if strings.Count(out, "[allow]") != 1 || !strings.Contains(out, "user.go:20:1: [allow] stale //lint:allow deadexport directive") {
		t.Errorf("want exactly the allow on a live name reported stale:\n%s", out)
	}
	if strings.Contains(out, "Kept") {
		t.Errorf("a kept name or its callee was reported:\n%s", out)
	}
	if !strings.Contains(out, "[deadexport] exported Unused") {
		t.Errorf("dead func not reported:\n%s", out)
	}
}

// A load narrower than the whole module hides references, so the
// analyzer must stay silent rather than report live names.
func TestNarrowPatternReportsNothing(t *testing.T) {
	dir := filepath.Join("testdata", "src", "det", "deadexport")
	if out := lint(t, driver.Options{Dir: dir, Patterns: []string{"./..."}}); !strings.Contains(out, "[deadexport] exported Unused") {
		t.Fatalf("whole-module run missed the dead func:\n%s", out)
	}
	if out := lint(t, driver.Options{Dir: dir, Patterns: []string{"./internal/..."}}); strings.Contains(out, "[deadexport]") {
		t.Errorf("narrow run reported:\n%s", out)
	}
}
