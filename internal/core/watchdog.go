package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/ticket"
)

// The Act stage's watchdog closes the loop around the maintenance plane's
// own actuators: every Execute call is bracketed by a sim-time deadline, so
// a stalled robot, a lost outcome report, or a pathologically slow
// completion can delay a ticket but never wedge it. The invariants:
//
//   - The deadline is the executor's nominal duration estimate ×
//     WatchdogFactor, floored at WatchdogFloor. Both are sized so the
//     deadline strictly exceeds every natural sampling tail: with no fault
//     injection the watchdog arms and cancels but never fires, leaving
//     chaos-free runs untouched.
//   - Exactly one of {outcome callback, watchdog} settles an attempt. Both
//     capture the attempt's sequence number at launch and check it first;
//     the winner bumps nothing the loser needs (the outcome path cancels
//     the timer, the watchdog path bumps attemptSeq so the outcome lands
//     as a late outcome).
//   - A fired watchdog releases exactly what the attempt held — drains and
//     the Level-1 operator — force-fails the attempt, and re-enters the
//     normal notBefore machinery with capped exponential backoff indexed
//     by the attempt count: no wall clock, no randomness, replay-exact.
//   - RobotFailLimit robot-lane fires degrade the ticket to the human lane
//     (forceHuman), the paper's graceful-degradation story for broken
//     automation.
func (a *Act) armWatchdog(w *workItem, l lane, actor exec.Actor, task exec.Task, op exec.Operator, seq int) {
	c := a.c
	if c.cfg.WatchdogFactor <= 0 {
		return
	}
	var est sim.Time
	if de, ok := l.x.(exec.DurationEstimator); ok {
		est = de.EstimateDuration(actor, task)
	}
	deadline := sim.Time(float64(est) * c.cfg.WatchdogFactor)
	if deadline < c.cfg.WatchdogFloor {
		deadline = c.cfg.WatchdogFloor
	}
	w.watchdog = c.d.Eng.After(deadline, "act-watchdog", func() {
		a.onWatchdog(w, l, actor, task, op, seq, deadline)
	})
}

// onWatchdog force-fails an attempt whose outcome never arrived in budget.
func (a *Act) onWatchdog(w *workItem, l lane, actor exec.Actor, task exec.Task, op exec.Operator, seq int, deadline sim.Time) {
	c := a.c
	if w.attemptSeq != seq || !w.active {
		return // the outcome won the race; the timer should have been cancelled
	}
	// Invalidate the attempt's outstanding done callback: if the work ever
	// reports (slow-complete losing the race, a stalled actuator recovering)
	// it lands in onLateOutcome and must not double-release anything.
	w.attemptSeq++
	a.release(w, op)
	w.attempts++
	c.stats.WatchdogFires++
	if l.robot {
		w.robotFails++
		if c.cfg.RobotFailLimit > 0 && w.robotFails >= c.cfg.RobotFailLimit && !w.forceHuman {
			w.forceHuman = true
			c.stats.DegradedTickets++
			c.log(EvDegraded, w.t.ID, w.t.Link.Name(),
				fmt.Sprintf("after %d robot watchdog failure(s)", w.robotFails))
			c.d.Bus.Publish(bus.TopicDegraded, bus.Degraded{
				Ticket: w.t.ID, Link: w.t.Link, RobotFailures: w.robotFails,
			})
		}
	}
	// The force-fail is a recorded attempt (it consumed the actuator and the
	// budget) but does not advance the ladder: nothing physical concluded,
	// so the same rung is retried after backoff.
	c.d.Store.Record(w.t, ticket.Attempt{
		Action: task.Action, End: task.End, Actor: actor.Name(),
		At: c.d.Eng.Now(), Note: "watchdog: no outcome within budget",
	})
	backoff := a.retryBackoff(w.attempts)
	w.notBefore = c.d.Eng.Now() + backoff
	c.log(EvWatchdog, w.t.ID, w.t.Link.Name(),
		fmt.Sprintf("%v by %s: no outcome within %v (attempt %d, backoff %v)",
			task.Action, actor.Name(), deadline, w.attempts, backoff))
	c.d.Bus.Publish(bus.TopicWatchdog, bus.WatchdogFired{
		Ticket: w.t.ID, Link: w.t.Link, Actor: actor.Name(), Robot: l.robot,
		Action: task.Action, Deadline: deadline, Attempt: w.attempts, Backoff: backoff,
	})
	c.d.Eng.After(backoff, "watchdog-retry", a.kickForTicket(w))
	// The released drains may unblock other queued work right away.
	a.kickDispatch()
}

// onLateOutcome absorbs an Outcome for an attempt the watchdog already
// force-failed. The attempt's drains, claims and operator were released
// when the watchdog fired and the ticket has moved on, so nothing is
// rolled back: the report is journalled for audit, and the actor it frees
// triggers a dispatch pass. If the late work actually fixed the link, the
// recovery alert (or the retry's redundant attempt) resolves the ticket
// through the normal paths.
func (a *Act) onLateOutcome(w *workItem, l lane, out exec.Outcome) {
	c := a.c
	c.stats.LateOutcomes++
	who := "human"
	if l.robot {
		who = "robot"
	}
	c.log(EvLateOutcome, w.t.ID, w.t.Link.Name(),
		fmt.Sprintf("%s %v by %s reported after its watchdog (completed=%t fixed=%t)",
			who, out.Task.Action, out.Actor, out.Completed, out.Fixed))
	a.kickDispatch()
}

// retryBackoff returns the delay before retrying after a watchdog failure:
// the configured base doubled per recorded attempt and capped. Indexing by
// the attempt count keeps it deterministic without wall clocks or jitter —
// the sim's seeded event order already decorrelates concurrent retries.
func (a *Act) retryBackoff(attempt int) sim.Time {
	b := a.c.cfg.RetryBackoff
	if b <= 0 {
		return 0
	}
	for i := 1; i < attempt && b < a.c.cfg.RetryBackoffCap; i++ {
		b *= 2
	}
	if limit := a.c.cfg.RetryBackoffCap; limit > 0 && b > limit {
		b = limit
	}
	return b
}
