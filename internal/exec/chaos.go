package exec

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ChaosStats counts injections performed by a ChaosExecutor.
type ChaosStats struct {
	Dispatches       int // Execute calls seen (injected or not)
	Stalls           int // no Outcome ever delivered
	LostOutcomes     int // work performed, report dropped
	SlowCompletions  int // work performed, report delayed
	SpuriousHuman    int // fabricated NeedsHuman, no work performed
	SpuriousStockout int // fabricated Stockout, no work performed
}

// Injected returns the total number of faulted dispatches.
func (s ChaosStats) Injected() int {
	return s.Stalls + s.LostOutcomes + s.SlowCompletions + s.SpuriousHuman + s.SpuriousStockout
}

// ChaosExecutor wraps an Executor and injects actuator-plane faults per
// faults.ExecChaos: stalls (no outcome), lost outcomes (work done, report
// dropped), slow completions (report delayed past the nominal duration),
// and spurious NeedsHuman/Stockout give-ups. All draws come from the
// engine's seeded "execchaos" RNG stream, so a fixed seed replays the same
// injections; the wrapper is intended for robotic backends and does not
// forward the optional capability interfaces (Shifted, RowOccupancy,
// OperatorSource) of a wrapped human crew.
type ChaosExecutor struct {
	inner Executor
	eng   *sim.Engine
	cfg   faults.ExecChaos
	stats ChaosStats
}

// WithChaos wraps inner with chaos injection. An inactive config returns
// inner unchanged, so a disabled chaos layer is byte-for-byte absent.
func WithChaos(inner Executor, eng *sim.Engine, cfg faults.ExecChaos) Executor {
	if !cfg.Active() {
		return inner
	}
	return &ChaosExecutor{inner: inner, eng: eng, cfg: cfg}
}

// Stats returns a copy of the injection counters.
func (x *ChaosExecutor) Stats() ChaosStats { return x.stats }

// CanPerform implements Executor.
func (x *ChaosExecutor) CanPerform(a faults.Action) bool { return x.inner.CanPerform(a) }

// Claim implements Executor.
func (x *ChaosExecutor) Claim(loc topology.Location) Actor { return x.inner.Claim(loc) }

// EstimateDuration forwards to the inner executor's estimator so the Act
// stage's watchdog sees nominal (chaos-free) durations; it returns 0 when
// the inner executor has none.
func (x *ChaosExecutor) EstimateDuration(a Actor, t Task) sim.Time {
	if est, ok := x.inner.(DurationEstimator); ok {
		return est.EstimateDuration(a, t)
	}
	return 0
}

// Execute implements Executor, rolling one injection decision per dispatch.
// The decision consumes exactly one uniform draw (plus one for the spurious
// report latency), in a fixed order, keeping chaos runs deterministic and
// statistically decoupled from every other stream.
func (x *ChaosExecutor) Execute(a Actor, t Task, done func(Outcome)) {
	x.stats.Dispatches++
	rng := x.eng.RNG("execchaos")
	u := rng.Float64()

	if u < x.cfg.StallProb {
		// The actuator wedges before doing anything: no work, no report.
		x.stats.Stalls++
		return
	}
	u -= x.cfg.StallProb

	if u < x.cfg.LostProb {
		// Work is performed normally; the completion report is dropped.
		x.stats.LostOutcomes++
		x.inner.Execute(a, t, func(Outcome) {})
		return
	}
	u -= x.cfg.LostProb

	if u < x.cfg.SlowProb {
		// Work is performed normally; the report is held back until
		// SlowFactor× the attempt's actual duration has elapsed.
		x.stats.SlowCompletions++
		x.inner.Execute(a, t, func(out Outcome) {
			extra := sim.Time(float64(out.Duration()) * (x.cfg.SlowFactor - 1))
			if extra <= 0 {
				done(out)
				return
			}
			x.eng.After(extra, "chaos-slow-report", func() {
				out.Finished += extra
				done(out)
			})
		})
		return
	}
	u -= x.cfg.SlowProb

	if u < x.cfg.SpuriousNeedsHumanProb {
		x.stats.SpuriousHuman++
		x.spurious(a, t, done, func(out *Outcome) {
			out.NeedsHuman = true
			out.Note = "chaos: spurious human-support request"
		})
		return
	}
	u -= x.cfg.SpuriousNeedsHumanProb

	if u < x.cfg.SpuriousStockoutProb {
		x.stats.SpuriousStockout++
		x.spurious(a, t, done, func(out *Outcome) {
			out.Stockout = true
			out.Note = "chaos: spurious stockout report"
		})
		return
	}

	x.inner.Execute(a, t, done)
}

// spurious fabricates a failed outcome without touching hardware,
// delivered after a short deterministic give-up latency.
func (x *ChaosExecutor) spurious(a Actor, t Task, done func(Outcome), mut func(*Outcome)) {
	delay := sim.Time((30 + 90*x.eng.RNG("execchaos").Float64()) * float64(sim.Second))
	started := x.eng.Now()
	x.eng.After(delay, "chaos-spurious-report", func() {
		out := Outcome{Actor: a.Name(), Task: t, Started: started, Finished: x.eng.Now()}
		mut(&out)
		done(out)
	})
}

// String identifies the wrapper in logs.
func (x *ChaosExecutor) String() string {
	return fmt.Sprintf("chaos(%+v)", x.cfg)
}
