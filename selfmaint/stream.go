package selfmaint

// This file is the delta producer for the streaming control plane: a Feed
// bridges a running cluster into a controlplane.Hub, turning bus events and
// link-health transitions into hub frames and keeping the keyed state
// topics (cp.status, cp.health, cp.ticket) current.
//
// The bridge is split in two halves to respect the pipeline's concurrency
// discipline. Bus taps and injector listeners fire synchronously inside the
// simulation step, where blocking operations (locks, channel sends) are
// forbidden — so the handlers only append to plain slices. Sync, called by
// the driver at the step edge (outside any handler), drains those buffers
// into the hub, which is where the hub mutex is taken and subscribers are
// woken. Watchers therefore observe the run without ever being able to
// perturb it: the simulation thread never blocks on a subscriber, and the
// feed reads nothing back from the hub.

import (
	"strconv"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Feed streams a cluster's state into a control-plane hub. Create one with
// Cluster.FeedControlPlane and call Sync after each batch of virtual time.
type Feed struct {
	c      *Cluster
	hub    *controlplane.Hub
	sub    *bus.Subscription
	closed bool

	// Handler-side buffers: appended to inside bus/injector callbacks,
	// drained by Sync. The simulation is single-threaded, so no locking.
	// pending holds both kinds of callback in arrival order, which is
	// virtual-time order: each fires at the engine's current time.
	pending  []change
	dirty    []int // ticket ids touched since the last Sync, first-touch order
	dirtySet map[int]bool
}

// change is one buffered callback: an observable link-health transition
// when link is set, a bus event otherwise.
type change struct {
	link string
	to   faults.Health
	at   sim.Time
	ev   bus.Event
}

// FeedControlPlane attaches a feed to the cluster: every pipeline bus event
// becomes a transient hub frame under its bus topic name, and the keyed
// topics cp.status, cp.health and cp.ticket track the run summary, the set
// of unhealthy links, and the ticket table. The current state is published
// immediately, so snapshots are complete from the moment the feed exists;
// afterwards the caller must invoke Feed.Sync at each step edge (after each
// Run slice) to flush accumulated deltas.
func (c *Cluster) FeedControlPlane(h *controlplane.Hub) *Feed {
	f := &Feed{c: c, hub: h, dirtySet: make(map[int]bool)}
	f.sub = c.TapEvents(f.onEvent)
	c.w.Inj.Subscribe(f)

	// Prime with the state that predates the feed: unhealthy links and any
	// tickets already in the store.
	now := c.Now()
	for _, l := range c.w.Net.Links {
		if obs := c.w.Inj.Observable(l.ID); obs != faults.Healthy {
			f.pending = append(f.pending, change{link: l.Name(), to: obs, at: now})
		}
	}
	for _, t := range c.w.Store.All() {
		f.markDirty(t.ID)
	}
	f.Sync()
	return f
}

// Close detaches the bus tap and makes the remaining callbacks inert. (The
// fault injector has no unsubscribe; its listener slot stays registered but
// stops buffering.)
func (f *Feed) Close() {
	f.sub.Cancel()
	f.closed = true
}

// onEvent is the bus tap: buffer the event and note which ticket it
// touched. Runs inside the simulation step — append-only, nothing blocking.
func (f *Feed) onEvent(ev bus.Event) {
	if f.closed {
		return
	}
	f.pending = append(f.pending, change{ev: ev})
	switch p := ev.Payload.(type) {
	case bus.TicketEvent:
		f.markDirty(p.ID)
	case bus.Dispatch:
		f.markDirty(p.Ticket)
	case bus.WorkOutcome:
		f.markDirty(p.Ticket)
	case bus.WatchdogFired:
		f.markDirty(p.Ticket)
	case bus.Degraded:
		f.markDirty(p.Ticket)
	}
}

func (f *Feed) markDirty(id int) {
	if !f.dirtySet[id] {
		f.dirtySet[id] = true
		f.dirty = append(f.dirty, id)
	}
}

// LinkStateChanged implements faults.Listener: buffer the observable
// transition for the next Sync.
func (f *Feed) LinkStateChanged(l *topology.Link, from, to faults.Health, at sim.Time) {
	if f.closed {
		return
	}
	f.pending = append(f.pending, change{link: l.Name(), to: to, at: at})
}

// LinkFlapped implements faults.Listener. Flap episodes do not change the
// observable health state, so there is nothing to publish; the telemetry
// pipeline turns sustained flapping into alerts, which arrive via the bus
// tap.
func (f *Feed) LinkFlapped(l *topology.Link, dur sim.Time, lossFrac float64, at sim.Time) {}

// Sync drains everything buffered since the last call into the hub: health
// transitions (tombstoning recovered links) and bus event frames,
// interleaved in the order they happened, then refreshed rows for touched
// tickets and a fresh status summary, both at the current time. The
// frames' virtual times therefore never decrease. Call it at the step
// edge, never from inside a bus or injector callback — this is the half
// that takes the hub lock.
func (f *Feed) Sync() {
	now := f.c.Now()
	for _, ch := range f.pending {
		switch {
		case ch.link == "":
			f.hub.Publish(controlplane.Topic(ch.ev.Topic), "", false, ch.ev.At, renderEvent(ch.ev))
		case ch.to == faults.Healthy:
			f.hub.Publish(controlplane.TopicHealth, ch.link, true, ch.at, nil)
		default:
			f.hub.Publish(controlplane.TopicHealth, ch.link, false, ch.at, renderHealth(ch.to))
		}
	}
	for _, id := range f.dirty {
		if t := f.lookup(id); t != nil {
			f.hub.Publish(controlplane.TopicTicket, strconv.Itoa(id), false, now, renderTicket(t))
		}
	}
	f.hub.Publish(controlplane.TopicStatus, "status", false, now, f.renderStatus(now))

	f.pending = f.pending[:0]
	f.dirty = f.dirty[:0]
	clear(f.dirtySet)
}

// lookup resolves a ticket id against the store, or nil. A ticket's id is
// its index in Store.All: the store numbers tickets densely as it opens
// them and never removes one.
func (f *Feed) lookup(id int) *ticket.Ticket {
	if all := f.c.w.Store.All(); id >= 0 && id < len(all) {
		return all[id]
	}
	return nil
}

// renderHealth is the cp.health payload: {"health":"down"}.
func renderHealth(h faults.Health) []byte {
	b := make([]byte, 0, 24)
	b = append(b, `{"health":`...)
	b = strconv.AppendQuote(b, h.String())
	return append(b, '}')
}

// renderEvent is the transient bus-frame payload. The frame envelope
// already carries the virtual time and topic; the payload adds the bus
// sequence number and the event's text (EventText). The daemon's /events
// and /log serve these frames as they are.
func renderEvent(ev bus.Event) []byte {
	text := EventText(ev)
	b := make([]byte, 0, 32+len(text))
	b = append(b, `{"bus_seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"text":`...)
	b = strconv.AppendQuote(b, text)
	return append(b, '}')
}

// renderTicket is the cp.ticket row payload, the same shape as the
// daemon's /tickets rows.
func renderTicket(t *ticket.Ticket) []byte {
	b := make([]byte, 0, 128)
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, `,"link":`...)
	b = strconv.AppendQuote(b, t.Link.Name())
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, t.Kind.String())
	b = append(b, `,"status":`...)
	b = strconv.AppendQuote(b, t.Status.String())
	if t.Status == ticket.Resolved {
		b = append(b, `,"window":`...)
		b = strconv.AppendQuote(b, t.ServiceWindow().String())
	}
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(len(t.Attempts)), 10)
	return append(b, '}')
}

// renderStatus is the cp.status payload: the run summary with the same
// keys the daemon's /status endpoint has always served.
func (f *Feed) renderStatus(now sim.Time) []byte {
	rep := f.c.Report()
	b := make([]byte, 0, 384)
	b = append(b, `{"virtual_time":`...)
	b = strconv.AppendQuote(b, now.String())
	b = appendIntField(b, "tickets_opened", rep.TicketsOpened)
	b = appendIntField(b, "tickets_resolved", rep.TicketsResolved)
	b = append(b, `,"mean_window":`...)
	b = strconv.AppendQuote(b, rep.MeanServiceWindow.String())
	b = append(b, `,"availability":`...)
	b = strconv.AppendFloat(b, rep.FleetAvailability, 'g', -1, 64)
	b = append(b, `,"down_link_hours":`...)
	b = strconv.AppendFloat(b, rep.DownLinkHours, 'g', -1, 64)
	b = appendIntField(b, "robot_tasks", rep.RobotTasks)
	b = appendIntField(b, "human_tasks", rep.HumanTasks)
	b = appendIntField(b, "human_escalations", rep.EscalationsToHuman)
	b = appendIntField(b, "cascades", rep.CascadesDuringOps)
	b = appendIntField(b, "proactive_tasks", rep.ProactiveTasks)
	b = appendIntField(b, "predictive_tasks", rep.PredictiveTasks)
	b = appendIntField(b, "watchdog_fires", rep.WatchdogFires)
	b = appendIntField(b, "late_outcomes", rep.LateOutcomes)
	b = appendIntField(b, "degraded_tickets", rep.DegradedTickets)
	return append(b, '}')
}

func appendIntField(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}
