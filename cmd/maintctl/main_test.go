package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/robotapi"
	"repro/internal/scenario"
)

// maintctl runs one command line and returns its exit code and output.
func maintctl(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRobotAPITranscript drives every robot API subcommand against a quiet
// hall served over HTTP, built as examples/liveapi builds it: a dirty
// fabric link is planned for, cleaned at both ends and healthy again, and
// a request the service rejects exits 1 with its message.
func TestRobotAPITranscript(t *testing.T) {
	world, err := scenario.Build(scenario.Options{
		Seed: 1, BuildNet: scenario.SmallHall, Level: core.L3,
		Robots: true, NoController: true, FaultScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(robotapi.Handler(robotapi.NewService(world.Eng, world.Net, world.Inj, world.Fleet)))
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	var transcript strings.Builder
	for _, args := range []string{
		"caps", "topo", "health",
		"inject 3 contamination",
		"plan 3 A clean", "execute 3 A clean",
		"plan 3 B clean", "execute 3 B clean",
		"health",
		"inject -1 contamination",
		"plan 3 C clean",
	} {
		code, stdout, stderr := maintctl(append([]string{"-addr", addr}, strings.Fields(args)...)...)
		fmt.Fprintf(&transcript, "$ maintctl %s\n%s%s", args, stdout, stderr)
		if code != 0 {
			fmt.Fprintf(&transcript, "exit %d\n", code)
		}
	}
	if got := transcript.String(); got != wantTranscript {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, wantTranscript)
	}
}

const wantTranscript = `$ maintctl caps
actions: reseat, clean, replace-xcvr
unit robot-r1     scope=row   at row 1 rack 0  available
$ maintctl topo
leafspine-8x2: 42 devices (10 switches), 48 links (16 fabric), 9600G total
  link 4   leaf0/p4<->spine0/p0                     MPO   400G
  link 5   leaf0/p5<->spine1/p0                     MPO   400G
  link 10  leaf1/p4<->spine0/p1                     MPO   400G
  link 11  leaf1/p5<->spine1/p1                     MPO   400G
  link 16  leaf2/p4<->spine0/p2                     MPO   400G
  link 17  leaf2/p5<->spine1/p2                     MPO   400G
  link 22  leaf3/p4<->spine0/p3                     AOC   400G
  link 23  leaf3/p5<->spine1/p3                     MPO   400G
  link 28  leaf4/p4<->spine0/p4                     AOC   400G
  link 29  leaf4/p5<->spine1/p4                     AOC   400G
  link 34  leaf5/p4<->spine0/p5                     AOC   400G
  link 35  leaf5/p5<->spine1/p5                     AOC   400G
  link 40  leaf6/p4<->spine0/p6                     AOC   400G
  link 41  leaf6/p5<->spine1/p6                     AOC   400G
  link 46  leaf7/p4<->spine0/p7                     AOC   400G
  link 47  leaf7/p5<->spine1/p7                     AOC   400G
$ maintctl health
48 links: 0 down, 0 flapping
$ maintctl inject 3 contamination
fault injected
$ maintctl plan 3 A clean
unit robot-r1, estimated 191s
will contact 1 cable(s):
   leaf0-srv2/p0<->leaf0/p2
tray mates: 0
$ maintctl execute 3 A clean
completed=true fixed=false needsHuman=false stockout=false in 102s (0 cascades), link now flapping
note: wrong end
$ maintctl plan 3 B clean
unit robot-r1, estimated 191s
will contact 5 cable(s):
   leaf0-srv0/p0<->leaf0/p0
   leaf0-srv1/p0<->leaf0/p1
   leaf0-srv2/p0<->leaf0/p2
   leaf0/p4<->spine0/p0
   leaf0/p5<->spine1/p0
tray mates: 0
$ maintctl execute 3 B clean
completed=true fixed=true needsHuman=false stockout=false in 226s (1 cascades), link now healthy
$ maintctl health
48 links: 0 down, 0 flapping
$ maintctl inject -1 contamination
maintctl: remote inject: robotapi: link -1 out of range
exit 1
$ maintctl plan 3 C clean
maintctl: remote plan: robotapi: bad end "C" (want A or B)
exit 1
`

// TestRecordReplayDiff records three runs, replays one, and diffs them:
// one seed twice is identical (exit 0), seeds 7 and 8 diverge (exit 1).
func TestRecordReplayDiff(t *testing.T) {
	dir := t.TempDir()
	a, a2, b := filepath.Join(dir, "a.fr"), filepath.Join(dir, "a2.fr"), filepath.Join(dir, "b.fr")
	for _, rec := range [][]string{{a, "7"}, {a2, "7"}, {b, "8"}} {
		if code, _, stderr := maintctl("record", "-o", rec[0], "-seed", rec[1], "-days", "10"); code != 0 {
			t.Fatalf("record %v: exit %d: %s", rec, code, stderr)
		}
	}
	if code, stdout, stderr := maintctl("replay", a); code != 0 || !strings.Contains(stdout, "match") {
		t.Fatalf("replay: exit %d\n%s%s", code, stdout, stderr)
	}
	if code, stdout, _ := maintctl("diff", a, a2); code != 0 || !strings.HasPrefix(stdout, "identical") {
		t.Fatalf("diff of one seed twice: exit %d\n%s", code, stdout)
	}
	if code, stdout, _ := maintctl("diff", a, b); code != 1 {
		t.Fatalf("diff of seeds 7 and 8: exit %d, want 1\n%s", code, stdout)
	}
}
