package workforce

import (
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Executor adapts a Crew to the pipeline's exec.Executor contract. Besides
// dispatching, it exposes the crew's scheduling constraints through the
// optional capability interfaces: shift hours (exec.Shifted), per-row
// hands-on occupancy for the safety interlock (exec.RowOccupancy), and
// Level-1 robot operators (exec.OperatorSource).
type Executor struct {
	crew *Crew
}

// NewExecutor wraps the crew.
func NewExecutor(c *Crew) *Executor { return &Executor{crew: c} }

// CanPerform implements exec.Executor: technicians perform every action on
// the ladder, including the cable and switch work robots cannot do.
func (e *Executor) CanPerform(faults.Action) bool { return true }

// Claim implements exec.Executor: an idle technician, or nil. Technicians
// dispatch anywhere in the hall, so the location is not consulted.
func (e *Executor) Claim(topology.Location) exec.Actor {
	t := e.crew.FindTech()
	if t == nil {
		return nil
	}
	return techActor{t}
}

// Execute implements exec.Executor.
func (e *Executor) Execute(a exec.Actor, t exec.Task, done func(exec.Outcome)) {
	tech := a.(techActor).t
	e.crew.Execute(tech, t, func(out Outcome) {
		done(exec.Outcome{
			Actor:     out.Tech.Name,
			Task:      t,
			Started:   out.Started,
			Finished:  out.Finished,
			Completed: out.Completed,
			Fixed:     out.Result.Fixed,
			Stockout:  out.Stockout,
			Touched:   len(out.Effects),
			Note:      out.Result.Note,
		})
	})
}

// OnShift implements exec.Shifted.
func (e *Executor) OnShift(at sim.Time) bool { return e.crew.OnShift(at) }

// BusyInRow implements exec.RowOccupancy.
func (e *Executor) BusyInRow(row int) int { return e.crew.TechniciansInRow(row) }

// ClaimOperator implements exec.OperatorSource: reserve a technician to
// operate a Level-1 robotic unit.
func (e *Executor) ClaimOperator() (exec.Operator, bool) {
	t := e.crew.FindTech()
	if t == nil {
		return nil, false
	}
	t.Reserve()
	return techOperator{crew: e.crew, t: t}, true
}

// EstimateDuration implements exec.DurationEstimator: the crew's
// deterministic nominal dispatch+walk+work latency for the action,
// including the off-shift on-call surcharge.
func (e *Executor) EstimateDuration(_ exec.Actor, t exec.Task) sim.Time {
	return e.crew.EstimateExecDuration(t.Action)
}

// techActor lifts a Technician (whose Name is a field) to exec.Actor.
type techActor struct{ t *Technician }

func (a techActor) Name() string    { return a.t.Name }
func (a techActor) Available() bool { return a.t.Available() }

// techOperator is a reserved technician operating a robot.
type techOperator struct {
	crew *Crew
	t    *Technician
}

func (o techOperator) ArrivalDelay(at sim.Time) sim.Time { return o.crew.DispatchDelay(at) }
func (o techOperator) Release()                          { o.t.Release() }
