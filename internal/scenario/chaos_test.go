package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/ticket"
)

// TestChaosInvariants storms the control plane with adversarial injections
// — bursts of simultaneous faults across every cause class, including
// during in-flight repairs of neighbours — and checks global invariants at
// the end: no stuck machinery, no leaked drains, conservation of tickets.
// drainedLinks counts the links w's router has drained.
func drainedLinks(w *World) int {
	n := 0
	for _, l := range w.Net.Links {
		if w.Router.Drained(l.ID) {
			n++
		}
	}
	return n
}

func TestChaosInvariants(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		w, err := Build(Options{
			Seed: seed, BuildNet: SmallHall, Level: core.L4,
			Techs: 2, Robots: true, FaultScale: 5,
			MutateCore: func(c *core.Config) {
				c.PredictTrainAfter = 30 * sim.Day
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Repeated storms: every 20 days, break a wave of links with a
		// rotating cause.
		causes := faults.AllCauses
		wave := 0
		w.Eng.Every(5*sim.Day, 20*sim.Day, "chaos-storm", func(sim.Time) {
			c := causes[wave%len(causes)]
			wave++
			n := 0
			for i, l := range w.Net.Links {
				if (i+wave)%4 != 0 || n >= 10 {
					continue
				}
				st := w.Inj.State(l.ID)
				if st.Cause != faults.None || st.InRepair {
					continue
				}
				// Causes that do not apply to this medium will be rejected
				// by the model; emulate an operator choosing valid targets.
				switch c {
				case faults.Contamination:
					if !l.HasSeparableFiber() {
						continue
					}
				case faults.Oxidation, faults.FirmwareHang, faults.XcvrDead:
					if !l.Cable.Class.NeedsTransceiver() {
						continue
					}
				}
				w.Inj.InduceFault(l, c)
				n++
			}
		})
		w.Run(200 * sim.Day)

		sum := w.Store.Summarize()
		if sum.Total == 0 {
			t.Fatal("chaos produced no tickets")
		}
		open := sum.Total - sum.Resolved - sum.Cancelled
		if open > 3 {
			t.Fatalf("seed %d: %d tickets still open after the dust settled", seed, open)
		}
		// Drain conservation: router drains == drains held by work items.
		if drainedLinks(w) != w.Ctrl.HeldDrains() {
			t.Fatalf("seed %d: drain leak: router=%d held=%d",
				seed, drainedLinks(w), w.Ctrl.HeldDrains())
		}
		// No link left in the InRepair limbo without an active ticket.
		for _, l := range w.Net.Links {
			st := w.Inj.State(l.ID)
			if st.InRepair {
				tk := w.Store.OpenFor(l.ID)
				if tk == nil || (tk.Status != ticket.Active && tk.Status != ticket.Assigned) {
					t.Fatalf("seed %d: link %s stuck in repair without active work", seed, l.Name())
				}
			}
		}
		// Robots and technicians all get released eventually (any still
		// busy must be on one of the few open tickets).
		busyUnits := 0
		for _, u := range w.Fleet.Units() {
			if !u.Available() {
				busyUnits++
			}
		}
		if busyUnits > open+1 {
			t.Fatalf("seed %d: %d units busy with only %d open tickets", seed, busyUnits, open)
		}
		// Availability stayed sane despite the abuse.
		if a := w.Ledger.FleetAvailability(); a < 0.8 || a > 1 {
			t.Fatalf("seed %d: availability %v", seed, a)
		}
	}
}

// TestChaosDeterminism: the same chaos schedule replays identically.
func TestChaosDeterminism(t *testing.T) {
	run := func() (int, int, float64) {
		w, err := Build(Options{
			Seed: 9, BuildNet: SmallHall, Level: core.L3,
			Techs: 2, Robots: true, FaultScale: 15,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Eng.Every(3*sim.Day, 7*sim.Day, "chaos", func(sim.Time) {
			for _, l := range w.Net.SwitchLinks()[:4] {
				st := w.Inj.State(l.ID)
				if st.Cause == faults.None && !st.InRepair && l.Cable.Class.NeedsTransceiver() {
					w.Inj.InduceFault(l, faults.Oxidation)
					break
				}
			}
		})
		w.Run(90 * sim.Day)
		sum := w.Store.Summarize()
		return sum.Total, sum.Resolved, w.Ledger.FleetAvailability()
	}
	t1, r1, a1 := run()
	t2, r2, a2 := run()
	if t1 != t2 || r1 != r2 || a1 != a2 {
		t.Fatalf("chaos runs diverged: (%d,%d,%v) vs (%d,%d,%v)", t1, r1, a1, t2, r2, a2)
	}
}
