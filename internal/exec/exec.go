// Package exec defines the Act stage's executor contracts: the common
// interface through which the maintenance pipeline dispatches physical work
// without knowing whether a robot fleet or a human crew performs it.
// *robot.Fleet and *workforce.Crew are Executors themselves, and their
// units and technicians are Actors; both fill in one Outcome as the work
// runs. The control plane in internal/core depends only on this package —
// the decoupling the paper's §4 "software-defined maintenance" agenda asks
// for. internal/core runs both backends through one dispatch, watchdog and
// outcome path and tells them apart only as its robot and human lanes, so
// a new backend (contractor pools, per-pod fleets) plugs in by
// implementing Executor, without touching dispatch code.
package exec

import (
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Task is one physical repair assignment.
type Task struct {
	Link   *topology.Link
	End    faults.End
	Action faults.Action
}

// Port returns the port the task works at.
func (t Task) Port() *topology.Port { return t.End.Port(t.Link) }

// Outcome reports what an executor accomplished, normalized across
// backends.
type Outcome struct {
	// Actor names who performed the work (unit or technician name).
	Actor    string
	Task     Task
	Started  sim.Time
	Finished sim.Time
	// Completed reports the action was physically performed; Fixed that the
	// repair verified successful; Masked that the fix suppressed the symptom
	// but left a cause that will recur.
	Completed bool
	Fixed     bool
	Masked    bool
	// NeedsHuman is set when a robotic executor gives up and requests human
	// support (perception failure, verification failure, mechanical abort).
	// Human backends leave it false: Act escalates any outcome carrying it
	// to the human lane, whichever lane reported it.
	NeedsHuman bool
	// Stockout is set when the task needs a spare the inventory cannot
	// supply right now.
	Stockout bool
	// Touched counts cascade effects on neighbouring cables during the work.
	Touched int
	Note    string
}

// Duration is how long the attempt occupied the actor.
func (o Outcome) Duration() sim.Time { return o.Finished - o.Started }

// Actor is one worker — a robotic unit or a technician.
type Actor interface {
	Name() string
	// Available reports whether the actor can take a task right now. The
	// dispatcher re-checks it at work start: an actor claimed before a
	// drain-settle delay may have been taken by other work in between.
	Available() bool
}

// Executor dispatches physical work.
type Executor interface {
	// CanPerform reports whether this executor can run the action at all
	// (robots cannot lay fiber or replace switch hardware).
	CanPerform(a faults.Action) bool
	// Claim returns an available actor able to work at the location, or nil.
	// Claiming does not reserve: the actor stays available until Execute.
	Claim(loc topology.Location) Actor
	// Execute runs the task on a previously claimed actor asynchronously;
	// done receives the outcome. The actor must be Available and must have
	// come from this executor's Claim.
	Execute(a Actor, t Task, done func(Outcome))
}

// The optional capability interfaces below let an executor expose
// scheduling constraints without widening Executor itself. The dispatcher
// discovers them with type assertions and falls back to permissive
// defaults (always on shift, no row occupancy, no operators) when absent.

// DurationEstimator is an executor that can bound how long a dispatched
// task nominally takes. The Act stage multiplies the estimate by a safety
// factor to arm a watchdog over the attempt; executors without an estimate
// fall back to the dispatcher's configured floor. Estimates must be
// deterministic (no sampling): they feed sim-time deadlines, and a noisy
// estimate would perturb runs that never time out.
type DurationEstimator interface {
	// EstimateDuration returns the nominal (mean-scale) duration of running
	// t on a, including dispatch/travel overheads, or 0 when unknown.
	EstimateDuration(a Actor, t Task) sim.Time
}

// Shifted is an executor whose workers keep shift hours.
type Shifted interface {
	// OnShift reports whether the instant falls inside working hours.
	OnShift(at sim.Time) bool
}

// RowOccupancy is an executor that can report how many of its workers are
// hands-on in a datacenter row — the input to the human-robot safety
// interlock (§3.4).
type RowOccupancy interface {
	BusyInRow(row int) int
}

// Operator is a worker reserved to operate another executor's machinery —
// the Level-1 technician driving a robotic unit (§2.1).
type Operator interface {
	// ArrivalDelay samples how long until the operator is hands-on for a
	// dispatch at the given instant.
	ArrivalDelay(at sim.Time) sim.Time
	// Release returns the operator to their pool.
	Release()
}

// OperatorSource is an executor that can lend out operators.
type OperatorSource interface {
	// ClaimOperator reserves an operator, reporting false when none is free.
	ClaimOperator() (Operator, bool)
}
