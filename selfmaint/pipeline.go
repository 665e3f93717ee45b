package selfmaint

// This file re-exports the maintenance pipeline's extension points: the
// event bus (observe a run as a stream of Sense→Triage→Plan→Act events)
// and the Policy interface (replace the built-in escalation ladder with a
// custom planner).

import (
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/scenario"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Event is one bus message: payload plus envelope (virtual time, global
// sequence number, topic).
type Event = bus.Event

// Topic names one event stream on the pipeline bus.
type Topic = bus.Topic

// Subscription cancels an event subscription or tap.
type Subscription = bus.Subscription

// The pipeline's event taxonomy, in pipeline order.
const (
	TopicAlert    = bus.TopicAlert    // Sense: telemetry alerts (bus.Alert)
	TopicRequest  = bus.TopicRequest  // Plan: proactive/predictive repair requests
	TopicTicket   = bus.TopicTicket   // Triage: ticket lifecycle events
	TopicDispatch = bus.TopicDispatch // Act: work handed to a robot or technician
	TopicOutcome  = bus.TopicOutcome  // Act: work finished, fixed or not
	TopicDecision = bus.TopicDecision // Journal: every controller decision
)

// TapEvents registers fn on every pipeline topic. Taps run before topic
// subscribers and see events in publish order; cancel the returned
// subscription to detach.
func (c *Cluster) TapEvents(fn func(Event)) *Subscription {
	return c.w.Bus.Tap(fn)
}

// OnEvent registers fn for one topic.
func (c *Cluster) OnEvent(t Topic, fn func(Event)) *Subscription {
	return c.w.Bus.Subscribe(t, fn)
}

// EventText renders an event's payload in the one text form every observer
// shares: the control-plane stream, selfmaintd's /events and /log, and
// flight-recording replay and diff all print the same line.
func EventText(ev Event) string {
	return flightrec.Convert(ev.Payload).String()
}

// Policy plans repairs: given a ticket and its escalation stage it picks
// the action and end to attempt, and enumerates the impact set to drain
// before a manipulation. WithPolicy installs a custom one.
type Policy = core.Policy

// Decision is a Policy verdict.
type Decision = core.Decision

// Ticket re-exports the maintenance ticket consumed by Policy.Decide.
type Ticket = ticket.Ticket

// Link and Port re-export the topology types a Policy inspects.
type (
	Link   = topology.Link
	Port   = topology.Port
	LinkID = topology.LinkID
)

// Action is a physical repair primitive.
type Action = faults.Action

// The repair actions, in built-in escalation-ladder order.
const (
	Reseat            = faults.Reseat
	CleanFiber        = faults.Clean
	ReplaceXcvr       = faults.ReplaceXcvr
	ReplaceCable      = faults.ReplaceCable
	ReplaceSwitchPort = faults.ReplaceSwitchPort
)

// End names which end of a link a repair services.
type End = faults.End

// Link ends.
const (
	EndA = faults.EndA
	EndB = faults.EndB
)

// WithPolicy substitutes the controller's planning policy; the default is
// the diagnosis-guided escalation ladder.
func WithPolicy(p Policy) Option {
	return func(o *scenario.Options) { o.Policy = p }
}
