package robot

import (
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Executor adapts a Fleet to the pipeline's exec.Executor contract, so the
// Act stage can dispatch robotic work without importing this package.
type Executor struct {
	fleet *Fleet
}

// NewExecutor wraps the fleet.
func NewExecutor(f *Fleet) *Executor { return &Executor{fleet: f} }

// CanPerform implements exec.Executor.
func (e *Executor) CanPerform(a faults.Action) bool { return CanPerform(a) }

// Claim implements exec.Executor: an available unit that can reach the
// location, or nil. Units are not reserved by claiming.
func (e *Executor) Claim(loc topology.Location) exec.Actor {
	u := e.fleet.FindUnit(loc)
	if u == nil {
		return nil // untyped nil: a nil *Unit inside exec.Actor would be non-nil
	}
	return unitActor{u}
}

// Execute implements exec.Executor.
func (e *Executor) Execute(a exec.Actor, t exec.Task, done func(exec.Outcome)) {
	u := a.(unitActor).u
	e.fleet.Execute(u, t, func(out Outcome) {
		done(exec.Outcome{
			Actor:      out.Unit.Name,
			Task:       t,
			Started:    out.Started,
			Finished:   out.Finished,
			Completed:  out.Completed,
			Fixed:      out.Result.Fixed,
			NeedsHuman: out.NeedsHuman,
			Stockout:   out.Stockout,
			Touched:    len(out.Effects),
			Note:       out.Note,
		})
	})
}

// EstimateDuration implements exec.DurationEstimator: the fleet's
// deterministic scheduling estimate (mean primitive times plus travel) for
// the unit the dispatcher claimed.
func (e *Executor) EstimateDuration(a exec.Actor, t exec.Task) sim.Time {
	u := a.(unitActor).u
	return e.fleet.EstimateDuration(u, t)
}

// unitActor lifts a Unit (whose Name is a field) to the exec.Actor
// interface.
type unitActor struct{ u *Unit }

func (a unitActor) Name() string    { return a.u.Name }
func (a unitActor) Available() bool { return a.u.Available() }
