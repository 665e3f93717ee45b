package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current code")

// TestQuickSuiteGolden pins every rendered artifact of the quick suite —
// byte for byte what `experiments -quick -serial` prints — against
// testdata/quick.golden. It is the machine check behind "the quick suite
// stays byte-identical": a refactor that claims to keep simulated results
// must pass it unchanged.
//
// The golden holds amd64 output, like bench/expected.json. Regenerate it
// with `go test ./internal/scenario -run TestQuickSuiteGolden -update` only
// in a change meant to alter simulated outcomes, and account for every
// changed line in CHANGES.md.
func TestQuickSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds amd64 output; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	exps, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	arts, _, err := RunSuite(Serial(), exps, DefaultSuiteParams(true))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, a := range arts {
		out.WriteString(a.Render())
	}
	got := out.String()

	golden := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update to generate): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick suite drifted from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
