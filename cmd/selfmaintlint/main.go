// Command selfmaintlint is the multichecker for the repository's
// determinism, hot-path, and concurrency invariants. It loads the named
// packages (default ./...), runs the analyzer suite from internal/lint
// with the interprocedural fact layer, applies //lint:allow suppression,
// and exits non-zero on any finding — ci.sh runs it between go vet and the
// race stage.
//
// Usage:
//
//	selfmaintlint [flags] [packages...]
//
//	-fix              apply suggested fixes (currently the mapiter
//	                  detsort.Keys rewrite) in place, then report what remains
//	-stale            also flag //lint:allow directives that suppressed
//	                  nothing (dead suppressions must not accumulate)
//	-json             print findings as a JSON array
//	                  (file/line/col/analyzer/message/chain)
//	-bench-json FILE  upsert this run's wall time as the "lint" experiment
//	                  in the BENCH artifact, for cmd/benchdiff gating
//	-v                list packages as they are analyzed
//
// Findings print as file:line:col: [analyzer] message; transitive findings
// append their call chain, e.g. "(via EvaluateInto → helper → make at
// routing/foo.go:42)". A finding is resolved either by fixing the code or
// by an explicit //lint:allow <analyzer> <reason> directive on or above
// the line; the reason is mandatory and directives naming unknown
// analyzers are themselves findings, so a typo cannot suppress anything
// silently. An allow also prunes the named analyzer's facts at that line,
// so one directive covers the transitive findings it argues for.
package main

import (
	"flag"
	"os"

	"repro/internal/lint/driver"
)

func main() {
	fix := flag.Bool("fix", false, "apply suggested fixes in place")
	stale := flag.Bool("stale", false, "flag //lint:allow directives that suppressed nothing")
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	benchJSON := flag.String("bench-json", "", "BENCH artifact to record lint wall time in")
	verbose := flag.Bool("v", false, "log packages as they run")
	flag.Parse()

	os.Exit(driver.Run(driver.Options{
		Patterns:  flag.Args(),
		Fix:       *fix,
		Stale:     *stale,
		JSON:      *jsonOut,
		BenchJSON: *benchJSON,
		Verbose:   *verbose,
	}))
}
