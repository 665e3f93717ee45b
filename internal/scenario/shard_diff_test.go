package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// worldDigest condenses everything observable about a finished world into a
// deterministic string: ground-truth fault statistics, the full ticket
// summary, ledger availability, and the engine's event count. Two worlds
// that executed the same events in the same order digest identically.
func worldDigest(w *World) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d now=%v\n", w.Eng.Fired(), w.Eng.Now())
	fmt.Fprintf(&b, "faults=%+v\n", w.Inj.Stats())
	fmt.Fprintf(&b, "tickets=%+v\n", w.Store.Summarize())
	fmt.Fprintf(&b, "avail=%.9f\n", w.Ledger.FleetAvailability())
	fmt.Fprintf(&b, "robots=%d/%d\n", w.Fleet.AvailableUnits(), len(w.Fleet.Units()))
	return b.String()
}

// TestShardedWorldMatchesPlainBuild is the refactor's ground-truth pin: a
// world built on shard 0 of a one-shard MultiEngine (whose seed derivation
// keeps the root seed) is byte-identical to the same world on a plain
// Engine — the sharded path adds no hidden behavior. Exercised across
// automation levels and seeds, exactly the worlds the suite uses.
func TestShardedWorldMatchesPlainBuild(t *testing.T) {
	const days = 30
	for _, level := range []core.Level{core.L0, core.L3} {
		for _, seed := range []uint64{11, 23} {
			opts := func(eng *sim.Engine) Options {
				return Options{
					Seed: seed, Eng: eng, BuildNet: SmallHall,
					Level: level, Techs: 2, Robots: level >= core.L1,
					FaultScale: 30,
				}
			}
			plain, err := Build(opts(nil))
			if err != nil {
				t.Fatalf("plain build: %v", err)
			}
			plain.Run(days * sim.Day)

			me := sim.NewMultiEngine(seed, 1, 15*sim.Minute, 1)
			sharded, err := Build(opts(me.Shard(0).Engine()))
			if err != nil {
				t.Fatalf("sharded build: %v", err)
			}
			me.RunUntil(days * sim.Day)

			if p, s := worldDigest(plain), worldDigest(sharded); p != s {
				t.Fatalf("level=%v seed=%d: sharded world diverged from plain build\n--- plain\n%s--- sharded\n%s",
					level, seed, p, s)
			}
		}
	}
}

// TestFleetScaleOutDeterminism runs the quick F8 experiment, whose run
// function itself enforces fingerprint equality across the worker sweep on
// full datacenter worlds (topology, faults, telemetry, pipeline, robots,
// humans per region — not the toy regions of package fleet).
func TestFleetScaleOutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet scale-out differential is not a -short test")
	}
	p := DefaultFleetParams(true)
	p.Workers = []int{1, 2, 4}
	tab, err := F8FleetScale(Serial(), p)
	if err != nil {
		t.Fatalf("F8 quick: %v", err)
	}
	if got := len(tab.Rows); got != 3 {
		t.Fatalf("F8 table has %d rows, want 3", got)
	}
}

// TestFleetRegionAdapterLendReceive pins the scenario-side Region adapter:
// lending removes exactly one idle unit and receiving deploys a hall-scope
// unit under the transfer name.
func TestFleetRegionAdapterLendReceive(t *testing.T) {
	w, err := Build(Options{Seed: 5, BuildNet: SmallHall, Level: core.L3, Techs: 1, Robots: true})
	if err != nil {
		t.Fatal(err)
	}
	fr := &fleetRegion{w: w}
	before := len(w.Fleet.Units())
	if before == 0 {
		t.Fatal("world deployed no robots")
	}
	if !fr.LendUnit() {
		t.Fatal("LendUnit failed with idle units present")
	}
	if got := len(w.Fleet.Units()); got != before-1 {
		t.Fatalf("lend left %d units, want %d", got, before-1)
	}
	fr.ReceiveUnit("xfer-0-to-1-n1")
	if got := len(w.Fleet.Units()); got != before {
		t.Fatalf("receive left %d units, want %d", got, before)
	}
	last := w.Fleet.Units()[before-1]
	if last.Name() != "xfer-0-to-1-n1" {
		t.Fatalf("received unit named %q", last.Name())
	}
	if fr.Received != 1 {
		t.Fatalf("Received = %d, want 1", fr.Received)
	}
	s := fr.Summary(0)
	if s.Links == 0 || s.RobotsTotal != before {
		t.Fatalf("summary %+v inconsistent with world", s)
	}
}
