package scenario

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/flightrec"
	"repro/internal/sim"
)

// TestBusPayloadsHaveTypedText guards the one text form of bus events.
// Bus payloads have no String methods, so a payload type flightrec.Convert
// has no mirror for would fall through to PGeneric and print a
// *topology.Link's address into the control-plane stream and into flight
// recordings, breaking determinism. Every payload of two runs must convert
// to a typed mirror whose text holds no address: a 30-day L4 hall under
// heavy actuator chaos (so watchdog and degraded events occur) and a
// two-region fleet. Both runs are asserted to cover every topic.
func TestBusPayloadsHaveTypedText(t *testing.T) {
	seen := map[bus.Topic]int{}
	bad := map[bus.Topic]string{}
	check := func(ev bus.Event) {
		seen[ev.Topic]++
		p := flightrec.Convert(ev.Payload)
		if _, generic := p.(*flightrec.PGeneric); generic || strings.Contains(p.String(), "0x") {
			bad[ev.Topic] = p.String()
		}
	}

	w, err := Build(Options{Seed: 23, Level: core.L4, Robots: true, Techs: 2, FaultScale: 20,
		Chaos: faults.ScaledExecChaos(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	w.Bus.Tap(check)
	w.Run(30 * sim.Day)

	p := DefaultFleetParams(true)
	p.Regions = 2
	f, regions, err := BuildFleet(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Bus.Tap(check)
	for _, r := range regions {
		r.w.Bus.Tap(check)
	}
	f.Run(sim.Time(p.Days) * sim.Day)

	for _, topic := range []bus.Topic{
		bus.TopicAlert, bus.TopicRequest, bus.TopicTicket, bus.TopicDispatch,
		bus.TopicOutcome, bus.TopicWatchdog, bus.TopicDegraded, bus.TopicDecision,
		fleet.TopicSummary, fleet.TopicTicket, fleet.TopicTransfer,
	} {
		if seen[topic] == 0 {
			t.Errorf("no %s event: the runs no longer cover every topic", topic)
		}
		if text, ok := bad[topic]; ok {
			t.Errorf("%s payload has no typed text: %s", topic, text)
		}
	}
	if len(seen) != 11 {
		t.Errorf("runs published on %d topics, want the 11 checked: %v", len(seen), seen)
	}
}
