package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/sim"
)

// TestFixedSeedReproduces is the determinism regression for the pipeline
// refactor: two same-seed runs must produce byte-identical bus event
// streams, journal streams and availability-ledger digests. Any hidden
// map-iteration order, goroutine, or wall-clock dependency in the
// Sense→Triage→Plan→Act pipeline breaks this test.
func TestFixedSeedReproduces(t *testing.T) {
	opts := Options{
		Seed:       23,
		Level:      core.L4, // exercises predictive + proactive + robots + humans
		Robots:     true,
		Techs:      2,
		FaultScale: 20,
	}
	run := func() (events, journal, ledger [32]byte) {
		w, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		var stream strings.Builder
		w.Bus.Tap(func(ev bus.Event) { fmt.Fprintf(&stream, "[%v] %v\n", ev.At, flightrec.Convert(ev.Payload)) })
		w.Run(30 * sim.Day)
		var jr strings.Builder
		for _, e := range w.Ctrl.Journal(0) {
			fmt.Fprintf(&jr, "[%v] %v\n", e.At, flightrec.Convert(e))
		}
		led := fmt.Sprintf("%.12f %.12f %.12f",
			w.Ledger.FleetAvailability(), w.Ledger.DownLinkHours(), w.Ledger.DegradedLinkHours())
		return sha256.Sum256([]byte(stream.String())),
			sha256.Sum256([]byte(jr.String())),
			sha256.Sum256([]byte(led))
	}
	e1, j1, l1 := run()
	e2, j2, l2 := run()
	if e1 != e2 {
		t.Error("bus event streams differ between same-seed runs")
	}
	if j1 != j2 {
		t.Error("journal streams differ between same-seed runs")
	}
	if l1 != l2 {
		t.Error("availability-ledger digests differ between same-seed runs")
	}
}
