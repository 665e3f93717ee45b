package faults

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// testNet builds a small leaf-spine with separable-fiber uplinks.
func testNet(t *testing.T) *topology.Network {
	t.Helper()
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fabricLink returns a transceiver-bearing fabric link.
func fabricLink(t *testing.T, n *topology.Network) *topology.Link {
	t.Helper()
	for _, l := range n.SwitchLinks() {
		if l.Cable.Class.NeedsTransceiver() {
			return l
		}
	}
	t.Fatal("no separable fabric link in test network")
	return nil
}

type recorder struct {
	transitions []string
	flaps       int
}

func (r *recorder) LinkStateChanged(l *topology.Link, from, to Health, at sim.Time) {
	r.transitions = append(r.transitions, from.String()+">"+to.String())
}
func (r *recorder) LinkFlapped(l *topology.Link, dur sim.Time, loss float64, at sim.Time) {
	r.flaps++
}

func TestOnsetRatesRoughlyMatchConfig(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(42)
	cfg := DefaultConfig()
	inj := NewInjector(eng, n, cfg)

	// Auto-repair everything instantly so onsets keep accruing: a repair
	// daemon that always applies the right fix.
	inj.Subscribe(repairDaemon{eng: eng, inj: inj})
	const years = 40
	eng.RunUntil(years * sim.Year)

	st := inj.Stats()
	var expected float64
	for _, l := range n.Links {
		info := link{
			needsXcvr: l.Cable.Class.NeedsTransceiver(),
			separable: l.Cable.Class.Separable(),
			switchEnd: l.A.Device.Kind.IsSwitch() || l.B.Device.Kind.IsSwitch(),
		}
		for c, r := range cfg.AnnualRate {
			if c.applies(info) {
				expected += r * years
			}
		}
	}
	total := 0
	for _, v := range st.Onsets {
		total += v
	}
	if total == 0 {
		t.Fatal("no fault onsets in 40 simulated years")
	}
	ratio := float64(total) / expected
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("onset total %d vs expected %.0f (ratio %.2f)", total, expected, ratio)
	}
}

// repairDaemon instantly applies the correct terminal fix whenever a link
// leaves Healthy, so the fault process keeps running.
type repairDaemon struct {
	eng *sim.Engine
	inj *Injector
}

func (d repairDaemon) LinkStateChanged(l *topology.Link, from, to Health, at sim.Time) {
	if to == Healthy {
		return
	}
	st := d.inj.State(l.ID)
	if st.InRepair || st.Cause == None {
		return
	}
	d.eng.After(sim.Minute, "daemon-fix", func() {
		st := d.inj.State(l.ID)
		if st.Cause == None || st.InRepair {
			return
		}
		var action Action
		switch st.Cause {
		case Oxidation, FirmwareHang:
			action = Reseat
		case Contamination:
			action = Clean
		case XcvrDead:
			action = ReplaceXcvr
		case CableDamaged:
			action = ReplaceCable
		default:
			action = ReplaceSwitchPort
		}
		d.inj.BeginRepair(l)
		for !d.inj.FinishRepair(l, action, st.CauseEnd).Fixed {
			d.inj.BeginRepair(l)
		}
	})
}
func (d repairDaemon) LinkFlapped(*topology.Link, sim.Time, float64, sim.Time) {}

func TestCauseApplicability(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(7)
	inj := NewInjector(eng, n, DefaultConfig())
	eng.RunUntil(30 * sim.Year)
	// No DAC host link may ever have contamination or xcvr causes.
	for _, l := range n.Links {
		if l.Cable.Class == topology.DAC {
			st := inj.State(l.ID)
			switch st.Cause {
			case Contamination, XcvrDead, Oxidation, FirmwareHang:
				t.Fatalf("DAC link %s has transceiver cause %v", l.Name(), st.Cause)
			}
		}
	}
}

func TestInduceAndObservable(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{} // no background faults
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)

	rec := &recorder{}
	inj.Subscribe(rec)

	inj.InduceFault(l, XcvrDead)
	if got := inj.Observable(l.ID); got != Down {
		t.Fatalf("dead xcvr observable = %v, want down", got)
	}
	st := inj.State(l.ID)
	if st.Cause != XcvrDead {
		t.Fatalf("cause = %v", st.Cause)
	}
	if len(rec.transitions) != 1 || rec.transitions[0] != "healthy>down" {
		t.Fatalf("transitions = %v", rec.transitions)
	}

	// Repairing with the wrong action never fixes.
	for i := 0; i < 20; i++ {
		inj.BeginRepair(l)
		res := inj.FinishRepair(l, Reseat, st.CauseEnd)
		if res.Fixed {
			t.Fatal("reseat fixed a dead transceiver")
		}
	}
	// Correct action at correct end always fixes (p=1 for ReplaceXcvr).
	oldSerial := st.CauseEnd.Port(l).Xcvr.Serial
	inj.BeginRepair(l)
	if got := inj.Observable(l.ID); got != Down {
		t.Fatal("in-repair link not observably down")
	}
	res := inj.FinishRepair(l, ReplaceXcvr, st.CauseEnd)
	if !res.Fixed || res.Cleared != XcvrDead {
		t.Fatalf("replace-xcvr result: %v", res)
	}
	if inj.Observable(l.ID) != Healthy {
		t.Fatal("link not healthy after successful replacement")
	}
	if st.CauseEnd.Port(l).Xcvr.Serial == oldSerial {
		t.Fatal("transceiver serial unchanged after replacement")
	}
}

func TestInduceFaultPanicsWhenFaulted(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	inj.InduceFault(l, Oxidation)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double induce")
		}
	}()
	inj.InduceFault(l, XcvrDead)
}

func TestWrongEndCleanFails(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(9)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	cfg.DownManifest[Contamination] = 1 // deterministic manifestation
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	inj.InduceFault(l, Contamination)
	st := inj.State(l.ID)
	wrong := st.CauseEnd.Opposite()
	for i := 0; i < 25; i++ {
		inj.BeginRepair(l)
		if res := inj.FinishRepair(l, Clean, wrong); res.Fixed {
			t.Fatal("cleaning the wrong end fixed contamination")
		}
	}
	// The correct end succeeds with p=0.92; try a few times.
	fixed := false
	for i := 0; i < 25 && !fixed; i++ {
		inj.BeginRepair(l)
		fixed = inj.FinishRepair(l, Clean, st.CauseEnd).Fixed
	}
	if !fixed {
		t.Fatal("cleaning correct end never fixed contamination in 25 tries")
	}
	if d := inj.State(l.ID).Ends[st.CauseEnd].Dirt; d > 0.2 {
		t.Fatalf("dirt after clean = %g", d)
	}
}

func TestMaskedReseatRecurs(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(11)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	cfg.ReseatMaskProb = 1 // always masks
	cfg.DownManifest[Contamination] = 0
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	inj.InduceFault(l, Contamination)
	st := inj.State(l.ID)

	inj.BeginRepair(l)
	res := inj.FinishRepair(l, Reseat, st.CauseEnd)
	if !res.Fixed || !res.Masked {
		t.Fatalf("expected masked fix, got %v", res)
	}
	if inj.Observable(l.ID) != Healthy {
		t.Fatal("masked link not observably healthy")
	}
	// Run long enough for the recurrence (median ~67h, heavy tail).
	eng.RunUntil(120 * sim.Day)
	if inj.Observable(l.ID) == Healthy {
		t.Fatal("masked contamination never recurred")
	}
	if inj.Stats().MaskedRecurrences != 1 {
		t.Fatalf("recurrences = %d", inj.Stats().MaskedRecurrences)
	}
	if inj.State(l.ID).Cause != Contamination {
		t.Fatal("recurred link lost its cause")
	}
}

func TestFlappingEmitsEpisodesAndStopsOnRepair(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(13)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	cfg.DownManifest[Contamination] = 0 // force gray manifestation
	inj := NewInjector(eng, n, cfg)
	rec := &recorder{}
	inj.Subscribe(rec)
	l := fabricLink(t, n)
	inj.InduceFault(l, Contamination)
	if inj.Observable(l.ID) != Flapping {
		t.Fatal("not flapping")
	}
	eng.RunUntil(12 * sim.Hour)
	if rec.flaps == 0 {
		t.Fatal("no flap episodes in 12h on a flapping link")
	}
	if inj.State(l.ID).FlapCount != rec.flaps {
		t.Fatalf("flap count %d != recorded %d", inj.State(l.ID).FlapCount, rec.flaps)
	}
	// Fix it; flapping must stop.
	st := inj.State(l.ID)
	fixed := false
	for i := 0; i < 30 && !fixed; i++ {
		inj.BeginRepair(l)
		fixed = inj.FinishRepair(l, Clean, st.CauseEnd).Fixed
	}
	if !fixed {
		t.Fatal("clean failed 30 times")
	}
	before := rec.flaps
	eng.RunUntil(eng.Now() + 24*sim.Hour)
	if rec.flaps != before {
		t.Fatal("flap episodes continued after repair")
	}
	if inj.State(l.ID).FlapCount != 0 {
		t.Fatal("flap count not reset on healthy")
	}
}

func TestProactiveRepairRefreshesClocks(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(17)
	cfg := DefaultConfig()
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	// Proactive reseat on a healthy link reports no fault and counts as a
	// refresh.
	inj.BeginRepair(l)
	res := inj.FinishRepair(l, Reseat, EndA)
	if !res.Fixed || res.Note != "no fault present" {
		t.Fatalf("proactive result: %v", res)
	}
	if inj.Stats().ProactiveRefreshes != 1 {
		t.Fatal("refresh not counted")
	}
	if inj.Observable(l.ID) != Healthy {
		t.Fatal("link unhealthy after proactive reseat")
	}
}

func TestTouchCascades(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(19)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	cfg.TouchTransientProb = 1 // deterministic for the test
	inj := NewInjector(eng, n, cfg)

	// A leaf's fabric port sits among host ports: touching it disturbs
	// neighbours.
	l := fabricLink(t, n)
	p := l.A
	if !p.Device.Kind.IsSwitch() {
		p = l.B
	}
	risk := inj.DisturbedBy(p)
	if len(risk) == 0 {
		t.Fatal("no at-risk links next to a dense ToR port")
	}
	rec := &recorder{}
	inj.Subscribe(rec)
	effects := inj.Touch(p, false)
	if effects == 0 {
		t.Fatal("rough touch with p=1 produced no effects")
	}
	st := inj.Stats()
	if effects != st.CascadeTransients+st.CascadePermanents {
		t.Fatalf("Touch counted %d effects, stats %d transients + %d permanents",
			effects, st.CascadeTransients, st.CascadePermanents)
	}
	if rec.flaps != st.CascadeTransients {
		t.Fatalf("%d cascade transients notified %d flaps", st.CascadeTransients, rec.flaps)
	}
}

func TestGentleTouchReducesCascades(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(23)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	p := l.A
	if !p.Device.Kind.IsSwitch() {
		p = l.B
	}
	rough, gentle := 0, 0
	for i := 0; i < 3000; i++ {
		rough += inj.Touch(p, false)
		gentle += inj.Touch(p, true)
	}
	if rough == 0 {
		t.Fatal("no rough-touch cascades in 3000 trials")
	}
	if float64(gentle) > 0.5*float64(rough) {
		t.Fatalf("gentle touch not substantially safer: rough=%d gentle=%d", rough, gentle)
	}
}

func TestTouchTray(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(29)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	cfg.TrayDisturbProb = 1
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	if len(n.LinksSharingTray(l)) == 0 {
		t.Skip("fabric link shares no tray in this build")
	}
	effects := inj.TouchTray(l)
	if effects == 0 {
		t.Fatal("tray pull with p=1 disturbed nothing")
	}
	if st := inj.Stats(); effects != st.CascadeTransients+st.CascadePermanents {
		t.Fatalf("TouchTray counted %d effects, stats %d transients + %d permanents",
			effects, st.CascadeTransients, st.CascadePermanents)
	}
}

func TestAbortRepairLeavesStateIntact(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(31)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	inj.InduceFault(l, CableDamaged)
	inj.BeginRepair(l)
	inj.AbortRepair(l)
	st := inj.State(l.ID)
	if st.InRepair {
		t.Fatal("still in repair after abort")
	}
	if st.Cause != CableDamaged {
		t.Fatal("abort changed the cause")
	}
}

func TestReplaceCableClearsBothEndsAndKeepsRun(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(37)
	cfg := DefaultConfig()
	cfg.AnnualRate = map[Cause]float64{}
	inj := NewInjector(eng, n, cfg)
	l := fabricLink(t, n)
	traysBefore := len(l.Cable.TraySegments)
	inj.InduceFault(l, CableDamaged)
	inj.BeginRepair(l)
	res := inj.FinishRepair(l, ReplaceCable, EndA)
	if !res.Fixed {
		t.Fatalf("cable replacement failed: %v", res)
	}
	st := inj.State(l.ID)
	if st.Ends[EndA].Dirt != 0 || st.Ends[EndB].Dirt != 0 {
		t.Fatal("new cable has dirt")
	}
	if len(l.Cable.TraySegments) != traysBefore {
		t.Fatal("cable replacement changed the tray run")
	}
}

func TestEnumStrings(t *testing.T) {
	if Contamination.String() != "contamination" || Cause(99).String() == "" {
		t.Error("cause strings")
	}
	if Flapping.String() != "flapping" || Health(99).String() == "" {
		t.Error("health strings")
	}
	if Reseat.String() != "reseat" || Action(99).String() == "" {
		t.Error("action strings")
	}
	if EndA.String() != "A" || EndB.String() != "B" || EndA.Opposite() != EndB {
		t.Error("end helpers")
	}
	res := RepairResult{Action: Clean, End: EndA, Fixed: true, Cleared: Contamination}
	if res.String() == "" {
		t.Error("result string")
	}
	res.Masked = true
	if res.String() == "" {
		t.Error("masked result string")
	}
	res.Fixed = false
	if res.String() == "" {
		t.Error("failed result string")
	}
}

func TestPrecursorFlapsBeforeGradualOnset(t *testing.T) {
	n := testNet(t)
	eng := sim.NewEngine(41)
	cfg := DefaultConfig()
	// Only contamination, at a rate that guarantees onsets in the run.
	cfg.AnnualRate = map[Cause]float64{Contamination: 4}
	inj := NewInjector(eng, n, cfg)
	rec := &recorder{}
	inj.Subscribe(rec)

	// Track when each link first flaps vs when it leaves healthy.
	firstFlap := map[topology.LinkID]sim.Time{}
	firstSick := map[topology.LinkID]sim.Time{}
	inj.Subscribe(listenerFuncs{
		flapped: func(l *topology.Link, at sim.Time) {
			if _, ok := firstFlap[l.ID]; !ok {
				firstFlap[l.ID] = at
			}
		},
		changed: func(l *topology.Link, to Health, at sim.Time) {
			if to != Healthy {
				if _, ok := firstSick[l.ID]; !ok {
					firstSick[l.ID] = at
				}
			}
		},
	})
	eng.RunUntil(180 * sim.Day)
	if inj.Stats().PrecursorFlaps == 0 {
		t.Fatal("no precursor flaps in 180 days of contamination onsets")
	}
	// At least one link flapped measurably before it manifested.
	precursed := 0
	for id, sick := range firstSick {
		if f, ok := firstFlap[id]; ok && f < sick-sim.Hour {
			precursed++
		}
	}
	if precursed == 0 {
		t.Fatal("no link showed precursor flaps before manifesting")
	}
}

// listenerFuncs adapts closures to the Listener interface.
type listenerFuncs struct {
	changed func(*topology.Link, Health, sim.Time)
	flapped func(*topology.Link, sim.Time)
}

func (lf listenerFuncs) LinkStateChanged(l *topology.Link, from, to Health, at sim.Time) {
	if lf.changed != nil {
		lf.changed(l, to, at)
	}
}
func (lf listenerFuncs) LinkFlapped(l *topology.Link, d sim.Time, loss float64, at sim.Time) {
	if lf.flapped != nil {
		lf.flapped(l, at)
	}
}
