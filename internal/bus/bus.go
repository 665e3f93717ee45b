// Package bus is the typed, deterministic publish/subscribe event bus the
// maintenance pipeline runs on. The paper's §4 research agenda calls for
// *software-defined maintenance controllers* whose policies are composable
// modules rather than one hard-wired loop; the bus is the spine that lets
// the pipeline stages — Sense (telemetry), Triage (ticketing), Plan
// (policy), Act (dispatch) — communicate without importing each other's
// concrete types.
//
// Delivery semantics, chosen so that a simulation run is reproducible to
// the byte for a fixed seed:
//
//   - Publish delivers synchronously on the caller's stack, in virtual time
//     (events are stamped with the sim engine's clock and a global sequence
//     number). No goroutines, no engine events: publishing never perturbs
//     the discrete-event schedule.
//   - Per-topic subscribers run in subscription order; taps (subscribers to
//     every topic) run before topic subscribers, so a tap-based event log
//     always records events in publish order even when a handler publishes
//     nested events.
//   - Handlers may publish, subscribe and cancel re-entrantly. A
//     subscription created while an event is being delivered does not
//     receive that event; a subscription cancelled mid-delivery receives
//     nothing further, including the event currently being delivered.
package bus

import (
	"fmt"

	"repro/internal/sim"
)

// Topic names one event stream. Topics are created implicitly on first
// subscribe or publish.
type Topic string

// Event is one published message: a payload with its bus envelope.
type Event struct {
	// Seq is the global publish sequence number; it totally orders all
	// events of a run, including events published at the same instant.
	Seq uint64
	// At is the virtual time the event was published.
	At      sim.Time
	Topic   Topic
	Payload any
}

// String renders the envelope for logs.
func (e Event) String() string {
	return fmt.Sprintf("[%v] #%d %s: %v", e.At, e.Seq, e.Topic, e.Payload)
}

// Handler consumes events.
type Handler func(Event)

// Subscription is a handle that can cancel a subscriber or tap.
type Subscription struct {
	bus    *Bus
	topic  Topic
	tap    bool
	fn     Handler
	active bool
}

// Cancel detaches the subscriber. It is safe to call mid-delivery (the
// subscriber receives nothing further) and more than once.
func (s *Subscription) Cancel() {
	if s == nil || !s.active {
		return
	}
	s.active = false
	s.bus.dead++
	s.bus.maybeCompact()
}

// Stats counts bus activity.
type Stats struct {
	Published  uint64 // events published
	Deliveries uint64 // handler invocations
	Topics     int    // topics with at least one subscriber ever
	Subs       int    // live subscriptions (including taps)
}

// Bus is one event bus. It is single-threaded by design, like the engine
// whose clock it stamps events with.
type Bus struct {
	eng    *sim.Engine
	seq    uint64
	topics map[Topic][]*Subscription
	taps   []*Subscription

	depth     int // re-entrant publish depth; compaction is deferred while > 0
	dead      int
	published uint64
	delivered uint64
}

// New creates an empty bus on the engine's clock.
func New(eng *sim.Engine) *Bus {
	return &Bus{eng: eng, topics: make(map[Topic][]*Subscription)}
}

// Subscribe registers fn for one topic. Subscribers of a topic are invoked
// in subscription order.
func (b *Bus) Subscribe(t Topic, fn Handler) *Subscription {
	s := &Subscription{bus: b, topic: t, fn: fn, active: true}
	b.topics[t] = append(b.topics[t], s)
	return s
}

// Tap registers fn for every topic. Taps run before topic subscribers and
// see events in publish order — the observability stream the journal and
// the daemon's /events endpoint hang off.
func (b *Bus) Tap(fn Handler) *Subscription {
	s := &Subscription{bus: b, tap: true, fn: fn, active: true}
	b.taps = append(b.taps, s)
	return s
}

// Publish stamps the payload with the current virtual time and the next
// sequence number and delivers it synchronously: taps first, then the
// topic's subscribers in subscription order. It returns the envelope.
func (b *Bus) Publish(t Topic, payload any) Event {
	ev := Event{Seq: b.seq, At: b.eng.Now(), Topic: t, Payload: payload}
	b.seq++
	b.published++
	b.depth++
	// Snapshot the topic's subscriber list before taps run: a subscription
	// created by a tap handler mid-delivery must not receive the event
	// being delivered (deliver also bounds itself to the snapshot length,
	// which covers subscriptions created by earlier topic subscribers).
	subs := b.topics[t]
	b.deliver(b.taps, ev)
	b.deliver(subs, ev)
	b.depth--
	b.maybeCompact()
	return ev
}

// deliver invokes the active handlers registered before this event was
// published (len is captured up front: re-entrant subscribers miss it).
func (b *Bus) deliver(list []*Subscription, ev Event) {
	n := len(list)
	for i := 0; i < n; i++ {
		if s := list[i]; s.active {
			b.delivered++
			s.fn(ev)
		}
	}
}

// maybeCompact drops cancelled subscriptions once no delivery is on the
// stack, keeping long-running worlds from accumulating dead handlers.
func (b *Bus) maybeCompact() {
	if b.depth != 0 || b.dead == 0 {
		return
	}
	//lint:allow mapiter per-topic compaction writes back under the same key; order cannot reach output
	for t, list := range b.topics {
		b.topics[t] = compact(list)
	}
	b.taps = compact(b.taps)
	b.dead = 0
}

func compact(list []*Subscription) []*Subscription {
	kept := list[:0]
	for _, s := range list {
		if s.active {
			kept = append(kept, s)
		}
	}
	// Zero the tail so cancelled subscriptions can be collected.
	for i := len(kept); i < len(list); i++ {
		list[i] = nil
	}
	return kept
}

// Stats returns activity counters.
func (b *Bus) Stats() Stats {
	st := Stats{Published: b.published, Deliveries: b.delivered, Topics: len(b.topics)}
	//lint:allow mapiter pure counting of live subscriptions; the total is order-independent
	for _, list := range b.topics {
		for _, s := range list {
			if s.active {
				st.Subs++
			}
		}
	}
	for _, s := range b.taps {
		if s.active {
			st.Subs++
		}
	}
	return st
}
