package telemetry

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

func setup(t *testing.T, seed uint64) (*sim.Engine, *topology.Network, *faults.Injector, *Monitor) {
	t.Helper()
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 2, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	fcfg := faults.DefaultConfig()
	fcfg.AnnualRate = map[faults.Cause]float64{}
	inj := faults.NewInjector(eng, n, fcfg)
	m := NewMonitor(eng, n, DefaultConfig())
	inj.Subscribe(m)
	return eng, n, inj, m
}

func separableLink(t *testing.T, n *topology.Network) *topology.Link {
	t.Helper()
	for _, l := range n.SwitchLinks() {
		if l.HasSeparableFiber() {
			return l
		}
	}
	t.Fatal("no separable link")
	return nil
}

// alertsOf attaches m to a fresh bus and returns the alerts it will
// publish on sense.alert, the monitor's only alert path.
func alertsOf(eng *sim.Engine, m *Monitor) *[]bus.Alert {
	b := bus.New(eng)
	m.PublishTo(b)
	var alerts []bus.Alert
	b.Subscribe(bus.TopicAlert, func(ev bus.Event) { alerts = append(alerts, ev.Payload.(bus.Alert)) })
	return &alerts
}

func TestDownAndRecoveredAlerts(t *testing.T) {
	eng, n, inj, m := setup(t, 1)
	l := separableLink(t, n)
	got := alertsOf(eng, m)

	eng.Schedule(sim.Hour, "break", func() { inj.InduceFault(l, faults.XcvrDead) })
	eng.Schedule(2*sim.Hour, "fix", func() {
		inj.BeginRepair(l)
		st := inj.State(l.ID)
		inj.FinishRepair(l, faults.ReplaceXcvr, st.CauseEnd)
	})
	eng.RunUntil(3 * sim.Hour)

	alerts := *got
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v, want down+recovered", alerts)
	}
	if alerts[0].Kind != bus.AlertLinkDown || alerts[0].At != sim.Hour {
		t.Fatalf("first alert = %v", alerts[0])
	}
	if alerts[1].Kind != bus.AlertLinkRecovered {
		t.Fatalf("second alert = %v", alerts[1])
	}
	c := m.Counters(l.ID)
	if c.Downs != 1 || c.Recoveries != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Health != faults.Healthy {
		t.Fatalf("health = %v", c.Health)
	}
}

func TestFlapDetectionThreshold(t *testing.T) {
	eng, n, inj, m := setup(t, 2)
	l := separableLink(t, n)
	got := alertsOf(eng, m)
	// Induce a gray failure. Force flapping manifestation via config in the
	// injector is already done (DownManifest default 0.15 for contamination);
	// retry induce until it manifests as flapping.
	eng.Schedule(sim.Minute, "break", func() {
		inj.InduceFault(l, faults.Contamination)
	})
	eng.RunUntil(sim.Minute)
	if inj.Observable(l.ID) == faults.Down {
		t.Skip("manifested fail-stop under this seed")
	}
	// Flap episodes arrive every ~10-30 min; threshold is 3 in 30 min, so
	// detection may take a few hours of episodes.
	eng.RunUntil(48 * sim.Hour)
	var flappingAlerts []bus.Alert
	for _, a := range *got {
		if a.Kind == bus.AlertLinkFlapping {
			flappingAlerts = append(flappingAlerts, a)
		}
	}
	if len(flappingAlerts) == 0 {
		t.Fatal("flap detector never fired in 48h of a flapping link")
	}
	// The detector must not re-fire while still flagged.
	if len(flappingAlerts) > 1 {
		first := flappingAlerts[0].At
		for _, a := range flappingAlerts[1:] {
			if a.At == first {
				t.Fatal("duplicate flapping alert at same instant")
			}
		}
	}
	c := m.Counters(l.ID)
	if c.FlapEpisodes == 0 || c.LossEWMA <= 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestFlapWindowCounting(t *testing.T) {
	eng, n, _, m := setup(t, 3)
	l := separableLink(t, n)
	// Drive LinkFlapped directly to control timing.
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	eng.RunUntil(10 * sim.Minute)
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	eng.RunUntil(6 * sim.Hour)
	c := m.Counters(l.ID)
	if c.FlapEpisodes != 2 {
		t.Fatalf("episodes = %d", c.FlapEpisodes)
	}
	if c.FlapsInWindow != 0 {
		t.Fatalf("flaps in window after 6h = %d, want 0", c.FlapsInWindow)
	}
	if c.FlaggedFlappy {
		t.Fatal("flagged with only 2 episodes")
	}
}

func TestFlapFlagResetOnRecovery(t *testing.T) {
	eng, n, _, m := setup(t, 4)
	l := separableLink(t, n)
	got := alertsOf(eng, m)
	for i := 0; i < 3; i++ {
		m.LinkFlapped(l, sim.Second, 0.4, eng.Now())
	}
	if !m.Counters(l.ID).FlaggedFlappy {
		t.Fatal("not flagged after 3 episodes in window")
	}
	m.LinkStateChanged(l, faults.Flapping, faults.Healthy, eng.Now())
	if m.Counters(l.ID).FlaggedFlappy {
		t.Fatal("flag survived recovery")
	}
	// Three more episodes re-flag.
	for i := 0; i < 3; i++ {
		m.LinkFlapped(l, sim.Second, 0.4, eng.Now())
	}
	flapAlerts := 0
	for _, a := range *got {
		if a.Kind == bus.AlertLinkFlapping {
			flapAlerts++
		}
	}
	if flapAlerts != 2 {
		t.Fatalf("flapping alerts = %d, want 2", flapAlerts)
	}
}

func TestSnapshotFeatures(t *testing.T) {
	eng, n, _, m := setup(t, 5)
	l := separableLink(t, n)
	// Two flaps now, then advance 2 days and flap once more.
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	eng.RunUntil(2 * sim.Day)
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	m.LinkStateChanged(l, faults.Healthy, faults.Down, eng.Now())
	f := m.Snapshot(l.ID)
	if f.Flaps1d != 1 {
		t.Errorf("Flaps1d = %g, want 1", f.Flaps1d)
	}
	if f.Flaps7d != 3 {
		t.Errorf("Flaps7d = %g, want 3", f.Flaps7d)
	}
	if f.Downs30d != 1 {
		t.Errorf("Downs30d = %g, want 1", f.Downs30d)
	}
	if f.LossEWMA <= 0 {
		t.Error("LossEWMA zero")
	}
	if f.HoursSince != 0 {
		t.Errorf("HoursSince = %g", f.HoursSince)
	}
	if len(f.Vector()) != reflect.TypeOf(f).NumField() {
		t.Error("Vector does not cover every feature")
	}
}

func TestHistoryPruning(t *testing.T) {
	eng, n, _, m := setup(t, 6)
	l := separableLink(t, n)
	m.LinkFlapped(l, sim.Second, 0.5, eng.Now())
	eng.RunUntil(40 * sim.Day) // beyond the 30d retention window
	f := m.Snapshot(l.ID)
	if f.Flaps7d != 0 || f.Flaps1d != 0 {
		t.Fatalf("stale flaps survived pruning: %+v", f)
	}
	if len(m.links[l.ID].flapTimes) != 0 {
		t.Fatal("flap history not pruned")
	}
}

func TestAlertStrings(t *testing.T) {
	_, n, _, _ := setup(t, 7)
	a := bus.Alert{Kind: bus.AlertLinkDown, Link: n.Links[0], At: sim.Hour}
	if a.String() == "" {
		t.Error("empty alert string")
	}
	if bus.AlertLinkFlapping.String() != "link-flapping" || bus.AlertKind(9).String() == "" {
		t.Error("alert kind names")
	}
}
