package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/ticket"
)

// onOutcome settles an attempt whose report arrived before its watchdog,
// on either lane. Only robotic backends set NeedsHuman, so that case needs
// no lane check.
func (a *Act) onOutcome(w *workItem, l lane, out exec.Outcome) {
	c := a.c
	c.stats.CascadesDuringOps += out.Touched
	c.d.Store.Record(w.t, ticket.Attempt{
		Action:  out.Task.Action,
		End:     out.Task.End,
		Actor:   out.Actor,
		At:      c.d.Eng.Now(),
		Fixed:   out.Fixed,
		Note:    out.Note,
		Touched: out.Touched,
	})
	w.attempts++
	// Robots may retry next — unless repeated robot watchdog failures
	// degraded the ticket to the human lane for good. No lane check: a
	// robot outcome only lands here with forceHuman clear.
	if c.cfg.RobotFailLimit <= 0 || w.robotFails < c.cfg.RobotFailLimit {
		w.forceHuman = false
	}
	// Announced for observers (taps, the daemon's event stream); nothing in
	// the pipeline consumes act.outcome.
	c.d.Bus.Publish(bus.TopicOutcome, bus.WorkOutcome{
		Ticket: w.t.ID, Link: w.t.Link, Actor: out.Actor, Robot: l.robot,
		Action: out.Task.Action, Completed: out.Completed, Fixed: out.Fixed,
		Note: out.Note,
	})
	// The actor just freed can serve other queued tickets.
	defer a.kickDispatch()

	switch {
	case out.Completed && out.Fixed:
		a.settle(w, out.Task.Action)
	case out.Stockout:
		// Parts on order: retry later without escalating the ladder. A
		// stockout is not a physical attempt. Park the item so dispatch
		// passes do not hammer the empty shelf in the meantime. Only a
		// robot's wait is journalled (DESIGN.md §2d says why).
		w.attempts--
		w.notBefore = c.d.Eng.Now() + c.cfg.StockoutRetry
		if l.robot {
			c.log(EvStockoutWait, w.t.ID, w.t.Link.Name(), out.Note)
		}
		c.d.Eng.After(c.cfg.StockoutRetry, "stockout-retry", a.kickForTicket(w))
	case out.NeedsHuman:
		c.stats.EscalationsToHuman++
		w.forceHuman = true
		c.log(EvEscalateHuman, w.t.ID, w.t.Link.Name(), out.Note)
		c.d.Eng.After(0, "escalate-human", a.kickForTicket(w))
	default:
		// Physically performed but the link is still broken: escalate the
		// ladder.
		w.stage++
		a.afterFailedAttempt(w)
	}
}

// afterFailedAttempt decides between another ladder attempt and parking the
// ticket as chronic.
func (a *Act) afterFailedAttempt(w *workItem) {
	c := a.c
	if w.attempts >= c.cfg.MaxAttempts {
		if !w.chronic {
			w.chronic = true
			c.stats.ChronicTickets++
			c.log(EvChronic, w.t.ID, w.t.Link.Name(),
				fmt.Sprintf("%d attempts without a fix", w.attempts))
		}
		// Chronic tickets walk complete ladder cycles (fresh diagnosis at
		// each rung), parking for half a day only between full cycles —
		// parking mid-cycle would retry the same first rung forever.
		if w.stage%len(faults.AllActions) == 0 {
			w.notBefore = c.d.Eng.Now() + 12*sim.Hour
			c.d.Eng.After(12*sim.Hour, "chronic-retry", a.kickForTicket(w))
			return
		}
	}
	c.d.Eng.After(0, "ladder-escalate", a.kickForTicket(w))
}

// kickForTicket returns a dispatch closure for one ticket.
func (a *Act) kickForTicket(w *workItem) func() {
	return func() {
		if w.t.Status == ticket.Resolved || w.t.Status == ticket.Cancelled {
			return
		}
		if w.active {
			return
		}
		a.tryStart(w)
		// tryStart may have found no free resources; a global dispatch pass
		// will pick the ticket up when something frees.
	}
}

// settle verifies the repair took (observably healthy) and resolves the
// ticket, announcing it on triage.ticket so the Planner's campaign
// bookkeeping sees the fix. A repair that reports fixed but leaves the link
// unhealthy (replaced the wrong part of a multi-symptom link) escalates
// instead.
func (a *Act) settle(w *workItem, action faults.Action) {
	c := a.c
	t := w.t
	if c.d.Inj.Observable(t.Link.ID) != faults.Healthy {
		w.stage++
		a.afterFailedAttempt(w)
		return
	}
	c.d.Store.Resolve(t)
	c.stats.TicketsResolved++
	c.log(EvTicketResolved, t.ID, t.Link.Name(),
		fmt.Sprintf("by %v after %d attempt(s), window %v", action, len(t.Attempts), t.ServiceWindow()))
	delete(a.work, t.ID)
	// The Planner reacts inside this publish: a reactive reseat fix may
	// trigger a proactive campaign, whose tickets are opened (and their
	// dispatch kicks scheduled) before the final kick below — exactly the
	// pre-refactor order.
	c.d.Bus.Publish(bus.TopicTicket, bus.TicketEvent{
		Kind: bus.TicketResolved, ID: t.ID, Link: t.Link,
		Action: action, Reactive: t.Kind == ticket.Reactive,
	})
	a.kickDispatch()
}
