package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun covers dcsim's usage errors and a short run's report.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // substring of stdout when code is 0, else of stderr
	}{
		{[]string{"-topology", "torus"}, 2, `dcsim: unknown topology "torus"`},
		{[]string{"-level", "5"}, 2, "dcsim: level must be 0-4"},
		{[]string{"-days", "3"}, 0, "simulating leafspine: 84 devices, 128 links (64 fabric), L3, 3 days at x20 aging, seed 1\nafter 3d 00:00:00.000:\n  tickets: "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		out := stdout.String()
		if code != 0 {
			out = stderr.String()
		}
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("dcsim %v: exit %d\n%s\nwant exit %d and %q", tc.args, code, out, tc.code, tc.want)
		}
	}
}
