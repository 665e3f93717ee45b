package bus

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The maintenance pipeline's event taxonomy. Each stage publishes on its
// own topic and subscribes to the stage upstream of it:
//
//	sense.alert     telemetry → Triage, Plan   payload Alert
//	plan.request    Plan → Triage              payload RepairRequest
//	triage.ticket   Triage/Act → Act, Plan     payload TicketEvent
//	act.dispatch    Act → observers            payload Dispatch
//	act.outcome     Act → observers            payload WorkOutcome
//	act.watchdog    Act → observers            payload WatchdogFired
//	act.degraded    Act → observers            payload Degraded
//	journal.decision controller → journal tap  payload core.JournalEntry
const (
	TopicAlert    Topic = "sense.alert"
	TopicRequest  Topic = "plan.request"
	TopicTicket   Topic = "triage.ticket"
	TopicDispatch Topic = "act.dispatch"
	TopicOutcome  Topic = "act.outcome"
	TopicWatchdog Topic = "act.watchdog"
	TopicDegraded Topic = "act.degraded"
	TopicDecision Topic = "journal.decision"
)

// AlertKind classifies a Sense-stage alert.
type AlertKind uint8

// Alert kinds: the telemetry plane's taxonomy. Telemetry publishes these
// alerts directly, so the bus stays below it.
const (
	AlertLinkDown AlertKind = iota
	AlertLinkFlapping
	AlertLinkRecovered
)

var alertKindNames = [...]string{
	AlertLinkDown:      "link-down",
	AlertLinkFlapping:  "link-flapping",
	AlertLinkRecovered: "link-recovered",
}

// String returns the alert kind name.
func (k AlertKind) String() string {
	if int(k) < len(alertKindNames) {
		return alertKindNames[k]
	}
	return fmt.Sprintf("alert(%d)", uint8(k))
}

// Alert is a Sense-stage event: the monitoring plane observed a link state
// change worth acting on.
type Alert struct {
	Kind   AlertKind
	Link   *topology.Link
	At     sim.Time
	Detail string
}

// RepairRequest is a Plan-stage event asking Triage to open background
// maintenance work (a proactive campaign task or a predictive ticket) on a
// currently healthy link.
type RepairRequest struct {
	Link *topology.Link
	// Predictive marks a model-predicted failure; otherwise the request is
	// part of a proactive campaign.
	Predictive bool
}

// TicketEventKind classifies a Triage-stage ticket lifecycle event.
type TicketEventKind uint8

// Ticket lifecycle events.
const (
	TicketOpened TicketEventKind = iota
	TicketDeduped
	TicketResolved
	TicketCancelled
)

var ticketEventNames = [...]string{
	TicketOpened:    "opened",
	TicketDeduped:   "deduped",
	TicketResolved:  "resolved",
	TicketCancelled: "cancelled",
}

// String returns the event kind name.
func (k TicketEventKind) String() string {
	if int(k) < len(ticketEventNames) {
		return ticketEventNames[k]
	}
	return fmt.Sprintf("ticket-event(%d)", uint8(k))
}

// TicketEvent is a ticket lifecycle transition. Opened/Deduped/Cancelled
// are published by Triage; Resolved by Act when a repair verifies healthy.
type TicketEvent struct {
	Kind TicketEventKind
	ID   int
	Link *topology.Link
	// Action is the repair action that resolved the ticket (Resolved only).
	Action faults.Action
	// Reactive reports whether the ticket repaired a detected failure (as
	// opposed to proactive/predictive background work). The proactive
	// planner keys campaigns off reactive reseat fixes.
	Reactive bool
}

// Dispatch is an Act-stage event: physical work is being launched.
type Dispatch struct {
	Ticket int
	Link   *topology.Link
	Actor  string
	Robot  bool
	Action faults.Action
	End    faults.End
}

// WorkOutcome is an Act-stage event: a physical attempt finished.
type WorkOutcome struct {
	Ticket int
	Link   *topology.Link
	Actor  string
	Robot  bool
	Action faults.Action
	// Completed reports the action was physically performed; Fixed that the
	// link verified healthy afterwards.
	Completed bool
	Fixed     bool
	Note      string
}

// WatchdogFired is an Act-stage event: a dispatched attempt blew its
// watchdog deadline — the actuator stalled, is running far past its nominal
// duration, or finished but its report was lost. The dispatcher has already
// released the attempt's drains and claims and force-failed it; Backoff is
// the deterministic delay before the retry becomes eligible.
type WatchdogFired struct {
	Ticket int
	Link   *topology.Link
	Actor  string
	Robot  bool
	Action faults.Action
	// Deadline is the expired watchdog budget (nominal duration × factor).
	Deadline sim.Time
	// Attempt is the attempt index the ticket is on after the force-fail.
	Attempt int
	Backoff sim.Time
}

// Degraded is an Act-stage event: repeated actuator failures exhausted the
// robotic lane's retry budget and the ticket is escalated to humans — the
// maintenance plane degrading gracefully around its own broken actuators.
type Degraded struct {
	Ticket int
	Link   *topology.Link
	// RobotFailures counts the robot-lane watchdog failures that triggered
	// the escalation.
	RobotFailures int
}
