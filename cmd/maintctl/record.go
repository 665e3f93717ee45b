package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/flightrec"
	"repro/selfmaint"
)

// cmdRecord simulates a cluster locally and streams its full event history
// to a flight recording. The run is deterministic: record twice with the
// same flags and the files are byte-identical; change the seed and `maintctl
// diff` pinpoints the first divergent frame.
func cmdRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output recording file (required)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	level := fs.Int("level", 3, "automation level (0-4)")
	days := fs.Int("days", 30, "simulated days")
	accel := fs.Float64("accel", 20, "fault acceleration factor")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	if *out == "" {
		return fail(stderr, fmt.Errorf("record: -o FILE is required"))
	}
	if *level < 0 || *level > 4 {
		return fail(stderr, fmt.Errorf("record: level %d out of range 0-4", *level))
	}
	if *days <= 0 {
		return fail(stderr, fmt.Errorf("record: days must be positive"))
	}

	c, err := selfmaint.NewCluster(
		selfmaint.WithSeed(*seed),
		selfmaint.WithLevel(selfmaint.Level(*level)),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
		selfmaint.WithFaultAcceleration(*accel),
	)
	if err != nil {
		return fail(stderr, err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(stderr, err)
	}
	rec, err := c.RecordTo(f, map[string]string{
		"tool":  "maintctl",
		"seed":  fmt.Sprintf("%d", *seed),
		"level": fmt.Sprintf("L%d", *level),
		"days":  fmt.Sprintf("%d", *days),
		"accel": fmt.Sprintf("%g", *accel),
	}, 6*selfmaint.Hour)
	if err != nil {
		f.Close()
		return fail(stderr, err)
	}
	c.Run(selfmaint.Time(*days) * selfmaint.Day)
	sum, err := rec.Close()
	if err != nil {
		f.Close()
		return fail(stderr, err)
	}
	if err := f.Close(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "recorded %d frames to %s (fingerprint %016x)\n", sum.Frames(), *out, sum.Fingerprint())
	return 0
}

// cmdReplay re-derives the run summary from a recording alone and verifies
// it against the fingerprint the live run stamped in the trailer. Exit 0 on
// match, 1 on mismatch or error.
func cmdReplay(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		return usage(stderr)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()
	res, err := flightrec.Replay(f)
	if err == nil {
		err = res.Verify()
	}
	if err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", args[0], err))
	}
	fmt.Fprintf(stdout, "%d frames, %d metadata keys\n", res.Frames, len(res.Meta))
	fmt.Fprintf(stdout, "fingerprint %016x\n", res.Trailer.Fingerprint)
	fmt.Fprintln(stdout, "match: replay reproduces the recorded run")
	return 0
}

// cmdDiff streams two recordings in lockstep and reports the first
// divergent frame. Exit 0 when identical, 1 on divergence, 2 on error.
func cmdDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		return usage(stderr)
	}
	a, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "maintctl:", err)
		return 2
	}
	defer a.Close()
	b, err := os.Open(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "maintctl:", err)
		return 2
	}
	defer b.Close()
	d, err := flightrec.Diff(a, b)
	if err != nil {
		fmt.Fprintln(stderr, "maintctl:", err)
		return 2
	}
	if d == nil {
		fmt.Fprintln(stdout, "identical: recordings agree frame for frame")
		return 0
	}
	fmt.Fprintln(stdout, d)
	return 1
}
