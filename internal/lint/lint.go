// Package lint registers the selfmaintlint analyzer suite: the nine
// machine-enforced invariants — determinism, hot-path, concurrency, and no
// exported name that only tests use — behind the repo's byte-identical
// fixed-seed guarantee and its lean surface. cmd/selfmaintlint runs them
// as a CI gate; DESIGN.md ("Determinism invariants") documents each rule,
// the interprocedural fact layer they share, and how to add the next one.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/busreentry"
	"repro/internal/lint/crossshard"
	"repro/internal/lint/deadexport"
	"repro/internal/lint/errdrop"
	"repro/internal/lint/globalrand"
	"repro/internal/lint/hotpathalloc"
	"repro/internal/lint/lockguard"
	"repro/internal/lint/mapiter"
	"repro/internal/lint/wallclock"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wallclock.Analyzer,
		globalrand.Analyzer,
		mapiter.Analyzer,
		busreentry.Analyzer,
		hotpathalloc.Analyzer,
		crossshard.Analyzer,
		lockguard.Analyzer,
		errdrop.Analyzer,
		deadexport.Analyzer,
	}
}

// Names returns the set of analyzer names, for //lint:allow validation.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}
