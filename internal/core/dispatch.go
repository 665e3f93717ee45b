package core

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Act is the pipeline stage that turns tickets into physical work. It
// consumes triage.ticket events to maintain its work queue, consults the
// Policy for actions and impact sets, and dispatches through the
// exec.Executor backends — it never touches robot or workforce concrete
// types. Robots and technicians run through one path: run launches an
// attempt on either lane, the watchdog times it out, and onOutcome settles
// it. Dispatches and outcomes are announced on act.dispatch and
// act.outcome.
type Act struct {
	c *Controller

	robots lane
	humans lane
	// Capabilities discovered on the human backend; nil-checked at use.
	shifted exec.Shifted
	rowOcc  exec.RowOccupancy
	opSrc   exec.OperatorSource

	work map[int]*workItem // by ticket ID

	// parkTimer backstops notBefore-parked items: dispatch arms it for the
	// earliest un-park instant so a parked item whose own retry event died
	// with a stale closure cannot strand work. parkTimerAt is the armed
	// instant, consulted to avoid re-arming per pass.
	parkTimer   sim.Handle
	parkTimerAt sim.Time
}

// lane is one of Act's two execution backends. Dispatch, watchdog and
// outcome code is shared; robot marks the robot lane where the lanes
// differ:
//   - a dispatch counts RobotTasks or HumanTasks and journals
//     dispatch-robot or dispatch-human;
//   - a stolen actor retries as unit-stolen-retry or tech-stolen-retry;
//   - only the robot lane carries a Level-1 operator;
//   - only robot watchdog fires count toward RobotFailLimit;
//   - only a robot stockout journals stockout-wait.
type lane struct {
	x     exec.Executor
	robot bool
}

// workItem tracks in-flight dispatch state for a ticket. Items are deleted
// from Act.work on every terminal transition — settle() on resolution,
// onTicketEvent on cancellation — so dispatch passes and heldDrains never
// iterate dead entries (workmap_test.go holds the invariant).
type workItem struct {
	t          *ticket.Ticket
	stage      int
	attempts   int
	forceHuman bool
	active     bool
	drained    []topology.LinkID
	chronic    bool
	// notBefore parks the item (stockout backoff, chronic cadence, watchdog
	// backoff): global dispatch passes skip it until the instant passes; its
	// own retry event re-kicks it, with the dispatch pass's park backstop as
	// the safety net.
	notBefore sim.Time

	// attemptSeq identifies the current physical attempt. The watchdog and
	// the executor's done callback each capture the launch-time value and
	// check it before acting, so whichever loses the race is inert: a late
	// outcome cannot double-release drains or operators the watchdog already
	// released.
	attemptSeq int
	// watchdog is the force-fail timer armed over the active attempt.
	watchdog sim.Handle
	// robotFails counts robot-lane watchdog failures toward the forceHuman
	// degradation threshold.
	robotFails int
}

func newAct(c *Controller) *Act {
	a := &Act{c: c, robots: lane{c.d.Robots, true}, humans: lane{c.d.Humans, false},
		work: make(map[int]*workItem)}
	if s, ok := c.d.Humans.(exec.Shifted); ok {
		a.shifted = s
	}
	if r, ok := c.d.Humans.(exec.RowOccupancy); ok {
		a.rowOcc = r
	}
	if o, ok := c.d.Humans.(exec.OperatorSource); ok {
		a.opSrc = o
	}
	return a
}

// onTicketEvent maintains the work queue from triage.ticket events.
func (a *Act) onTicketEvent(ev bus.Event) {
	te, ok := ev.Payload.(bus.TicketEvent)
	if !ok {
		return
	}
	switch te.Kind {
	case bus.TicketOpened:
		t := a.c.d.Store.OpenFor(te.Link.ID)
		if t == nil || t.ID != te.ID {
			return
		}
		a.work[t.ID] = &workItem{t: t, stage: t.StartStage}
		a.kickDispatch()
	case bus.TicketDeduped:
		// The existing ticket may be startable (priority upgraded, resources
		// freed since): give dispatch a pass.
		a.kickDispatch()
	case bus.TicketCancelled:
		delete(a.work, te.ID)
	}
}

// inFlight reports whether physical work is active for a ticket.
func (a *Act) inFlight(ticketID int) bool {
	w := a.work[ticketID]
	return w != nil && w.active
}

// heldDrains counts links drained on behalf of in-flight work items.
func (a *Act) heldDrains() int {
	n := 0
	for _, w := range a.work {
		n += len(w.drained)
	}
	return n
}

func (a *Act) kickDispatch() {
	a.c.d.Eng.After(0, "dispatch", a.dispatch)
}

// dispatch walks all pending work items in (priority, age) order and starts
// whatever can start now. It iterates the stage's own work map rather than
// the store's queue: a ticket whose start was rolled back (unit stolen
// during drain-settle, stockout retry) is Active in the store but still
// needs dispatching.
func (a *Act) dispatch() {
	now := a.c.d.Eng.Now()
	items := make([]*workItem, 0, len(a.work))
	earliestPark := sim.Forever
	//lint:allow mapiter collected items get a total (priority, age, id) sort below; iteration order cannot survive it
	for _, w := range a.work {
		if w.active || w.t.Status == ticket.Resolved || w.t.Status == ticket.Cancelled {
			continue
		}
		if now < w.notBefore {
			if w.notBefore < earliestPark {
				earliestPark = w.notBefore
			}
			continue
		}
		items = append(items, w)
	}
	a.armParkBackstop(earliestPark)
	sort.Slice(items, func(i, j int) bool {
		x, y := items[i].t, items[j].t
		if x.Priority != y.Priority {
			return x.Priority < y.Priority
		}
		if x.CreatedAt != y.CreatedAt {
			return x.CreatedAt < y.CreatedAt
		}
		return x.ID < y.ID
	})
	deferred := false
	for _, w := range items {
		// Background (P2) work respects the utilization gate.
		if w.t.Priority == ticket.P2 && a.utilization() > a.c.cfg.UtilGate {
			if !deferred {
				deferred = true
				a.c.d.Eng.After(sim.Hour, "util-deferred", a.dispatch)
			}
			continue
		}
		a.tryStart(w)
	}
}

// armParkBackstop schedules a dispatch pass at the earliest notBefore among
// parked items. Parked items normally re-kick via their own retry events;
// the backstop guarantees progress even if such an event goes dead (its
// closure finds the item active or the ticket terminal and declines). An
// extra pass is a no-op — items are either active, still parked, or get an
// idempotent tryStart — so the backstop cannot perturb behaviour, only
// bound starvation. A pass with nothing parked leaves any armed backstop
// in place: stale firings are harmless for the same reason.
func (a *Act) armParkBackstop(at sim.Time) {
	if at == sim.Forever {
		return
	}
	if a.parkTimer.Pending() && a.parkTimerAt <= at {
		return
	}
	a.parkTimer.Cancel()
	a.parkTimerAt = at
	a.parkTimer = a.c.d.Eng.Schedule(at, "park-backstop", a.dispatch)
}

// utilization reads the configured utilization source.
func (a *Act) utilization() float64 {
	if a.c.cfg.UtilFn == nil {
		return 0
	}
	return a.c.cfg.UtilFn()
}

// tryStart picks the action and lane for a ticket and launches the
// physical work if resources allow. It is a no-op (rescheduling itself as
// needed) when nothing can start yet.
func (a *Act) tryStart(w *workItem) {
	c := a.c
	t := w.t
	// Proactive/predictive tickets on healthy links carry their own action
	// choice; reactive work consults diagnosis each attempt (inside the
	// policy).
	d := c.d.Policy.Decide(t, w.stage)
	w.stage = d.Stage
	task := exec.Task{Link: t.Link, End: d.End, Action: d.Action}
	loc := task.Port().Device.Loc

	// The robot lane is ruled out up front — escalation (forceHuman) and a
	// Level-1 deployment with no operator source both disqualify it — so a
	// claimed unit is never discarded on a path that cannot use it, and an
	// L1 ticket that could never be operated falls through to direct human
	// dispatch instead of returning with no retry event armed (the old
	// permanent wedge).
	l, actor := a.humans, exec.Actor(nil)
	if a.robotEligible(d.Action) && !w.forceHuman && !(c.cfg.Level == L1 && a.opSrc == nil) {
		if c.cfg.SafetyInterlock && a.rowOcc != nil && a.rowOcc.BusyInRow(loc.Row) > 0 {
			// Safety interlock: a technician is hands-on in that row; the
			// robot stays out (§3.4). No timed retry is needed — the
			// occupying technician's task outcome kicks a dispatch pass
			// the moment the row frees.
			c.stats.SafetyHolds++
			c.log(EvSafetyHold, t.ID, t.Link.Name(),
				fmt.Sprintf("technician hands-on in row %d", loc.Row))
			return
		}
		// A unit out of reach or all busy leaves the ticket to humans.
		if actor = a.robots.x.Claim(loc); actor != nil {
			l = a.robots
		}
	}

	if l.robot {
		switch {
		case c.cfg.Level == L1:
			// Operator assistance: a technician must run the device.
			op, ok := a.opSrc.ClaimOperator()
			if !ok {
				return // retried when a task completes
			}
			delay := op.ArrivalDelay(c.d.Eng.Now())
			a.startWork(w, t)
			c.d.Eng.After(delay, "l1-operator-arrives", func() {
				a.run(w, l, actor, task, op)
			})
			return
		case c.cfg.Level == L2 && !a.onShift(c.d.Eng.Now()):
			if t.Priority != ticket.P0 {
				// Degraded/background work waits for the supervision shift.
				c.d.Eng.After(a.timeToShift(), "await-supervision", a.dispatch)
				return
			}
			// An outage cannot wait for the supervision shift: call out a
			// technician instead, today's process.
			l = a.humans
		}
	}
	if !l.robot {
		if actor = l.x.Claim(loc); actor == nil {
			return
		}
	}
	a.startWork(w, t)
	a.run(w, l, actor, task, nil)
}

// startWork transitions the ticket into execution.
func (a *Act) startWork(w *workItem, t *ticket.Ticket) {
	w.active = true
	if t.Status == ticket.Open {
		a.c.d.Store.Assign(t, "controller")
	}
	a.c.d.Store.Start(t)
}

// onShift consults the human backend's shift calendar; executors without
// one are treated as always supervised.
func (a *Act) onShift(at sim.Time) bool {
	if a.shifted == nil {
		return true
	}
	return a.shifted.OnShift(at)
}

// timeToShift returns the delay until the next supervision shift begins.
func (a *Act) timeToShift() sim.Time {
	now := a.c.d.Eng.Now()
	for d := sim.Time(0); d <= 24*sim.Hour; d += 15 * sim.Minute {
		if a.onShift(now + d) {
			return d
		}
	}
	return time24
}

const time24 = 24 * sim.Hour

// robotEligible reports whether the current level sends this action to a
// robot at all.
func (a *Act) robotEligible(action faults.Action) bool {
	return a.c.cfg.Level >= L1 && a.robots.x != nil && a.robots.x.CanPerform(action)
}

// run executes the task on an actor claimed from lane l. With ImpactAware
// set, the controller pre-drains for robots and technicians alike — the
// cross-layer machinery exists regardless of who holds the tool; L0/L1
// dispatch without it, today's process. op, when non-nil, is the robot
// lane's Level-1 operator, released when the attempt ends.
func (a *Act) run(w *workItem, l lane, actor exec.Actor, task exec.Task, op exec.Operator) {
	c := a.c
	begin := func() {
		if !actor.Available() {
			// The actor was claimed by another ticket between scheduling
			// and start (e.g. during the drain-settle delay): retry.
			a.release(w, op)
			if l.robot {
				c.d.Eng.After(c.cfg.RetryDelay, "unit-stolen-retry", a.dispatch)
			} else {
				c.d.Eng.After(c.cfg.RetryDelay, "tech-stolen-retry", a.dispatch)
			}
			return
		}
		kind := EvDispatchHuman
		if l.robot {
			c.stats.RobotTasks++
			kind = EvDispatchRobot
		} else {
			c.stats.HumanTasks++
		}
		c.log(kind, w.t.ID, task.Link.Name(),
			fmt.Sprintf("%v@%v by %s", task.Action, task.End, actor.Name()))
		c.d.Bus.Publish(bus.TopicDispatch, bus.Dispatch{
			Ticket: w.t.ID, Link: task.Link, Actor: actor.Name(), Robot: l.robot,
			Action: task.Action, End: task.End,
		})
		w.attemptSeq++
		seq := w.attemptSeq
		a.armWatchdog(w, l, actor, task, op, seq)
		l.x.Execute(actor, task, func(out exec.Outcome) {
			if w.attemptSeq != seq {
				a.onLateOutcome(w, l, out)
				return
			}
			w.watchdog.Cancel()
			a.release(w, op)
			a.onOutcome(w, l, out)
		})
	}
	if c.cfg.ImpactAware {
		a.preDrain(w, task.Port())
		c.d.Eng.After(c.cfg.DrainSettle, "drain-settle", begin)
	} else {
		begin()
	}
}

// preDrain drains the policy's impact set — the target link and every cable
// the manipulation will contact — so touched cables carry no traffic.
func (a *Act) preDrain(w *workItem, port *topology.Port) {
	c := a.c
	for _, id := range c.d.Policy.ImpactSet(w.t.Link, port) {
		if !c.d.Router.Drained(id) {
			c.d.Router.Drain(id)
			w.drained = append(w.drained, id)
		}
	}
	c.stats.PreDrains++
	c.log(EvPreDrain, w.t.ID, w.t.Link.Name(),
		fmt.Sprintf("drained %d link(s) ahead of manipulation", len(w.drained)))
}

// release ends an attempt's hold on resources: it returns the Level-1
// operator (nil on the human lane and above L1), restores everything the
// work item drained, and marks the item idle.
func (a *Act) release(w *workItem, op exec.Operator) {
	if op != nil {
		op.Release()
	}
	for _, id := range w.drained {
		a.c.d.Router.Undrain(id)
	}
	w.drained = nil
	w.active = false
}
