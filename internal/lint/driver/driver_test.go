package driver

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runDemo lints the det/demo fixture with opts layered on top of the
// source-root defaults.
func runDemo(t *testing.T, opts Options) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	opts.SrcDir = filepath.Join("testdata", "src")
	opts.SrcPkgs = []string{"det/demo"}
	opts.Stdout = &out
	opts.Stderr = &errb
	code = Run(opts)
	return out.String(), errb.String(), code
}

func TestJSONGolden(t *testing.T) {
	out, stderr, code := runDemo(t, Options{JSON: true})
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
	}
	golden := filepath.Join("testdata", "findings.golden.json")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update to generate): %v", err)
	}
	if out != string(want) {
		t.Errorf("JSON output drifted from golden (re-run with -update if intended)\n got: %s\nwant: %s", out, want)
	}
}

func TestTextOutputCarriesChain(t *testing.T) {
	out, _, code := runDemo(t, Options{})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(out, "(via tick → stamp → time.Now at demo/a.go:") {
		t.Errorf("transitive finding lost its chain:\n%s", out)
	}
	if strings.Contains(out, "allowedTick") {
		t.Errorf("suppressed finding leaked:\n%s", out)
	}
}

func TestStaleDirectiveReported(t *testing.T) {
	out, _, code := runDemo(t, Options{Stale: true})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(out, "stale //lint:allow mapiter directive") {
		t.Errorf("stale mapiter directive not reported:\n%s", out)
	}
	if strings.Contains(out, "stale //lint:allow wallclock") {
		t.Errorf("used wallclock directive reported stale:\n%s", out)
	}
}

func TestBenchJSONUpsert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	_, stderr, _ := runDemo(t, Options{BenchJSON: path})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bench artifact not written (stderr: %s): %v", stderr, err)
	}
	if !strings.Contains(string(b), `"id": "lint"`) {
		t.Errorf("bench artifact lacks the lint experiment: %s", b)
	}
	// A second run must replace, not duplicate, the entry.
	runDemo(t, Options{BenchJSON: path})
	b, _ = os.ReadFile(path)
	if strings.Count(string(b), `"id": "lint"`) != 1 {
		t.Errorf("lint experiment duplicated: %s", b)
	}
}
