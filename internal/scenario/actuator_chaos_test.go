package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/sim"
	"repro/internal/ticket"
)

// TestActuatorChaosFixedSeedReproduces is the determinism acceptance test
// for the fault-injection layer: with chaos enabled at a fixed seed, two
// runs must be byte-identical — every stall, lost report, and watchdog
// firing replays exactly. All injection draws come from the dedicated
// "execchaos" stream, so nothing here may perturb the other streams either.
func TestActuatorChaosFixedSeedReproduces(t *testing.T) {
	opts := Options{
		Seed:       23,
		Level:      core.L3,
		Robots:     true,
		Techs:      2,
		FaultScale: 20,
		Chaos:      faults.ScaledExecChaos(0.3),
	}
	run := func() (digest [32]byte, injected, fires int) {
		w, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		var stream strings.Builder
		w.Bus.Tap(func(ev bus.Event) { fmt.Fprintf(&stream, "[%v] %v\n", ev.At, flightrec.Convert(ev.Payload)) })
		w.Run(30 * sim.Day)
		for _, e := range w.Ctrl.Journal(0) {
			fmt.Fprintf(&stream, "[%v] %v\n", e.At, flightrec.Convert(e))
		}
		return sha256.Sum256([]byte(stream.String())),
			w.ChaosStats().Injected(), w.Ctrl.Stats().WatchdogFires
	}
	d1, inj1, f1 := run()
	d2, inj2, f2 := run()
	if inj1 == 0 {
		t.Fatal("chaos at rate 0.3 injected nothing in 30 accelerated days")
	}
	if f1 == 0 {
		t.Fatal("no watchdog fired despite injected stalls")
	}
	if d1 != d2 || inj1 != inj2 || f1 != f2 {
		t.Fatalf("chaos runs diverge at a fixed seed: injected %d vs %d, fires %d vs %d",
			inj1, inj2, f1, f2)
	}
}

// TestActuatorChaosNeverWedges is the headline invariant of the hardened
// Act stage: even with half of all robot dispatches misbehaving, every
// ticket keeps making progress — resolved, cancelled, or still being
// retried with resources accounted for. No stalled robot may strand a
// drain, an operator, or a ticket.
func TestActuatorChaosNeverWedges(t *testing.T) {
	w, err := Build(Options{
		Seed:       11,
		Level:      core.L3,
		Robots:     true,
		Techs:      2,
		FaultScale: 20,
		Chaos:      faults.ScaledExecChaos(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(90 * sim.Day)

	cs := w.ChaosStats()
	if cs.Stalls == 0 || cs.LostOutcomes == 0 {
		t.Fatalf("chaos mix did not exercise the hard failures: %+v", cs)
	}
	st := w.Ctrl.Stats()
	if st.WatchdogFires == 0 {
		t.Fatalf("no watchdog fires against %d injections", cs.Injected())
	}
	var total, resolved, cancelled int
	for _, tk := range w.Store.All() {
		total++
		switch tk.Status {
		case ticket.Resolved:
			resolved++
		case ticket.Cancelled:
			cancelled++
		}
	}
	if total == 0 || resolved == 0 {
		t.Fatalf("tickets: %d total, %d resolved", total, resolved)
	}
	// The overwhelming majority must close even under heavy actuator chaos;
	// a wedge shows up here as a growing open backlog.
	if open := total - resolved - cancelled; open > total/4 {
		t.Fatalf("%d of %d tickets open after 90 days of chaos", open, total)
	}
	// Every drain is held by an in-flight work item — watchdog force-fails
	// released theirs.
	if drainedLinks(w) != w.Ctrl.HeldDrains() {
		t.Fatalf("leaked drains: router=%d held=%d", drainedLinks(w), w.Ctrl.HeldDrains())
	}
}
