package bus

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func newBus() (*sim.Engine, *Bus) {
	eng := sim.NewEngine(1)
	return eng, New(eng)
}

// TestSameInstantOrdering: events published at one virtual instant are
// totally ordered by sequence number, and each subscriber of a topic sees
// them in publish order, with subscribers invoked in subscription order.
func TestSameInstantOrdering(t *testing.T) {
	_, b := newBus()
	var order []string
	b.Subscribe("t", func(ev Event) { order = append(order, fmt.Sprintf("s1:%d", ev.Seq)) })
	b.Subscribe("t", func(ev Event) { order = append(order, fmt.Sprintf("s2:%d", ev.Seq)) })
	for i := 0; i < 3; i++ {
		b.Publish("t", i)
	}
	want := []string{"s1:0", "s2:0", "s1:1", "s2:1", "s1:2", "s2:2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// TestEnvelopeStampsClock: events carry the engine's virtual clock.
func TestEnvelopeStampsClock(t *testing.T) {
	eng, b := newBus()
	var at []sim.Time
	b.Subscribe("t", func(ev Event) { at = append(at, ev.At) })
	b.Publish("t", "early")
	eng.After(5*sim.Second, "tick", func() { b.Publish("t", "late") })
	eng.RunUntil(10 * sim.Second)
	if len(at) != 2 || at[0] != 0 || at[1] != 5*sim.Second {
		t.Fatalf("stamped times %v, want [0 5s]", at)
	}
}

// TestTapsRunBeforeSubscribers: a tap sees every event of every topic,
// before the topic's own subscribers.
func TestTapsRunBeforeSubscribers(t *testing.T) {
	_, b := newBus()
	var order []string
	b.Subscribe("a", func(ev Event) { order = append(order, "sub-a") })
	b.Tap(func(ev Event) { order = append(order, "tap:"+string(ev.Topic)) })
	b.Subscribe("b", func(ev Event) { order = append(order, "sub-b") })
	b.Publish("a", nil)
	b.Publish("b", nil)
	want := []string{"tap:a", "sub-a", "tap:b", "sub-b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestSubscribeMidDelivery: a subscription created while an event is being
// delivered does not receive that event, but receives the next.
func TestSubscribeMidDelivery(t *testing.T) {
	_, b := newBus()
	var lateSeqs []uint64
	b.Subscribe("t", func(ev Event) {
		if ev.Seq == 0 {
			b.Subscribe("t", func(ev Event) { lateSeqs = append(lateSeqs, ev.Seq) })
		}
	})
	b.Publish("t", nil) // seq 0: late subscriber must miss this
	b.Publish("t", nil) // seq 1: late subscriber sees this
	if len(lateSeqs) != 1 || lateSeqs[0] != 1 {
		t.Fatalf("late subscriber saw %v, want [1]", lateSeqs)
	}

	// The same guarantee holds when the subscription is created by a tap:
	// taps run before topic subscribers, so without snapshotting the topic
	// list before taps, a tap-created subscription would receive the very
	// event that triggered it.
	_, b2 := newBus()
	var tapLateSeqs []uint64
	b2.Tap(func(ev Event) {
		if ev.Seq == 0 {
			b2.Subscribe("t", func(ev Event) { tapLateSeqs = append(tapLateSeqs, ev.Seq) })
		}
	})
	b2.Publish("t", nil) // seq 0: tap-created subscriber must miss this
	b2.Publish("t", nil) // seq 1: tap-created subscriber sees this
	if len(tapLateSeqs) != 1 || tapLateSeqs[0] != 1 {
		t.Fatalf("tap-created subscriber saw %v, want [1]", tapLateSeqs)
	}
}

// TestCancelMidDelivery: a subscription cancelled while the current event
// is being delivered receives nothing further, including that event.
func TestCancelMidDelivery(t *testing.T) {
	_, b := newBus()
	var got int
	var victim *Subscription
	b.Subscribe("t", func(ev Event) { victim.Cancel() })
	victim = b.Subscribe("t", func(ev Event) { got++ })
	b.Publish("t", nil)
	b.Publish("t", nil)
	if got != 0 {
		t.Fatalf("cancelled subscriber received %d events, want 0", got)
	}
	if victim.active {
		t.Fatal("victim still active after Cancel")
	}
	victim.Cancel() // double-cancel is a no-op
}

// TestUnsubscribeMidRun: cancelling between publishes detaches cleanly and
// the live-subscription count tracks it.
func TestUnsubscribeMidRun(t *testing.T) {
	_, b := newBus()
	var n1, n2 int
	s1 := b.Subscribe("t", func(Event) { n1++ })
	b.Subscribe("t", func(Event) { n2++ })
	b.Publish("t", nil)
	s1.Cancel()
	b.Publish("t", nil)
	b.Publish("t", nil)
	if n1 != 1 || n2 != 3 {
		t.Fatalf("counts (%d, %d), want (1, 3)", n1, n2)
	}
	if st := b.Stats(); st.Subs != 1 {
		t.Fatalf("Stats().Subs = %d after cancel, want 1", st.Subs)
	}
}

// TestReentrantPublish: a handler may publish; the nested event is fully
// delivered (depth-first) before control returns to the outer handler, and
// sequence numbers still reflect publish order.
func TestReentrantPublish(t *testing.T) {
	_, b := newBus()
	var order []string
	b.Subscribe("outer", func(ev Event) {
		order = append(order, "outer-start")
		b.Publish("inner", nil)
		order = append(order, "outer-end")
	})
	b.Subscribe("inner", func(ev Event) {
		order = append(order, fmt.Sprintf("inner:%d", ev.Seq))
	})
	b.Publish("outer", nil)
	want := []string{"outer-start", "inner:1", "outer-end"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestCancelDuringReentrantDeliveryCompacts: cancellation during nested
// delivery defers compaction until the stack unwinds, then drops the dead
// subscription.
func TestCancelDuringReentrantDeliveryCompacts(t *testing.T) {
	_, b := newBus()
	var self *Subscription
	self = b.Subscribe("t", func(ev Event) {
		b.Publish("nested", nil)
		self.Cancel()
	})
	b.Subscribe("nested", func(Event) {})
	b.Publish("t", nil)
	if len(b.topics["t"]) != 0 {
		t.Fatalf("topic list not compacted: %d entries", len(b.topics["t"]))
	}
	if st := b.Stats(); st.Subs != 1 {
		t.Fatalf("Stats().Subs = %d, want 1 (the nested subscriber)", st.Subs)
	}
}

// TestStatsCounters: published/delivered counters account every event and
// handler invocation.
func TestStatsCounters(t *testing.T) {
	_, b := newBus()
	b.Subscribe("t", func(Event) {})
	b.Subscribe("t", func(Event) {})
	b.Tap(func(Event) {})
	b.Publish("t", nil)     // 1 tap + 2 subs
	b.Publish("other", nil) // 1 tap
	st := b.Stats()
	if st.Published != 2 || st.Deliveries != 4 {
		t.Fatalf("Stats = %+v, want Published 2, Deliveries 4", st)
	}
}

// TestEventString renders the envelope.
func TestEventString(t *testing.T) {
	ev := Event{Seq: 3, At: 61 * sim.Second, Topic: "sense.alert", Payload: "x"}
	if got := ev.String(); got != "[00:01:01.000] #3 sense.alert: x" {
		t.Fatalf("String() = %q", got)
	}
}
