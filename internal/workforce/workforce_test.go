package workforce

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
	"repro/internal/topology"
)

type world struct {
	eng  *sim.Engine
	net  *topology.Network
	inj  *faults.Injector
	crew *Crew
	pool *inventory.Pool
}

func newWorld(t *testing.T, seed uint64, techs int, mutate func(*faults.Config, *Config)) *world {
	t.Helper()
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	fcfg := faults.DefaultConfig()
	fcfg.AnnualRate = map[faults.Cause]float64{}
	ccfg := DefaultConfig()
	if mutate != nil {
		mutate(&fcfg, &ccfg)
	}
	inj := faults.NewInjector(eng, n, fcfg)
	pool := inventory.NewPool(eng, inventory.DefaultStock(n), 2*sim.Day)
	crew := NewCrew(eng, n, inj, pool, ccfg, techs)
	return &world{eng: eng, net: n, inj: inj, crew: crew, pool: pool}
}

func (w *world) sepLink(t *testing.T) *topology.Link {
	t.Helper()
	for _, l := range w.net.SwitchLinks() {
		if l.HasSeparableFiber() {
			return l
		}
	}
	t.Fatal("no separable link")
	return nil
}

func (w *world) run(t *testing.T, task Task) Outcome {
	t.Helper()
	tech := w.crew.FindTech()
	if tech == nil {
		t.Fatal("no tech")
	}
	var out *Outcome
	w.crew.Execute(tech, task, func(o Outcome) { out = &o })
	w.eng.RunUntil(w.eng.Now() + 3*sim.Day)
	if out == nil {
		t.Fatal("task never finished")
	}
	return *out
}

func TestHumanRepairTakesHours(t *testing.T) {
	w := newWorld(t, 1, 2, func(fc *faults.Config, cc *Config) {
		fc.FixProb[faults.Reseat][faults.Oxidation] = 1
		cc.WrongEndProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Oxidation)
	st := w.inj.State(l.ID)
	// Start mid-shift (hour 10).
	w.eng.RunUntil(10 * sim.Hour)
	out := w.run(t, Task{Link: l, End: st.CauseEnd, Action: faults.Reseat})
	if !out.Completed || !out.Result.Fixed {
		t.Fatalf("outcome: %+v", out)
	}
	// Dominated by dispatch overhead: tens of minutes to hours, far beyond
	// a robot's minutes.
	if d := out.Duration(); d < 20*sim.Minute || d > 10*sim.Hour {
		t.Fatalf("on-shift human reseat took %v", d)
	}
	if w.inj.Observable(l.ID) != faults.Healthy {
		t.Fatal("link not healthy")
	}
}

func TestOffShiftDispatchSlower(t *testing.T) {
	var onShift, offShift sim.Time
	for _, start := range []sim.Time{12 * sim.Hour, 2 * sim.Hour} { // noon vs 2am
		w := newWorld(t, 2, 1, func(fc *faults.Config, cc *Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			cc.WrongEndProb = 0
		})
		l := w.sepLink(t)
		w.eng.RunUntil(start)
		w.inj.InduceFault(l, faults.Oxidation)
		st := w.inj.State(l.ID)
		out := w.run(t, Task{Link: l, End: st.CauseEnd, Action: faults.Reseat})
		if start == 12*sim.Hour {
			onShift = out.Duration()
		} else {
			offShift = out.Duration()
		}
	}
	if offShift <= onShift {
		t.Fatalf("off-shift (%v) not slower than on-shift (%v)", offShift, onShift)
	}
}

func TestOnShiftWindow(t *testing.T) {
	w := newWorld(t, 3, 1, nil)
	if w.crew.OnShift(3 * sim.Hour) {
		t.Fatal("3am on shift")
	}
	if !w.crew.OnShift(10 * sim.Hour) {
		t.Fatal("10am off shift")
	}
	if !w.crew.OnShift(sim.Day + 9*sim.Hour) {
		t.Fatal("next-day 9am off shift")
	}
	if w.crew.OnShift(sim.Day + 20*sim.Hour) {
		t.Fatal("8pm on shift")
	}
}

func TestWrongEndError(t *testing.T) {
	w := newWorld(t, 4, 1, func(fc *faults.Config, cc *Config) {
		cc.WrongEndProb = 1
		fc.FixProb[faults.Clean][faults.Contamination] = 1
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Contamination)
	st := w.inj.State(l.ID)
	out := w.run(t, Task{Link: l, End: st.CauseEnd, Action: faults.Clean})
	if !out.WrongEnd {
		t.Fatal("wrong-end error not recorded")
	}
	if out.Result.Fixed {
		t.Fatal("cleaning the wrong end fixed the link")
	}
	if w.crew.WrongEnds != 1 {
		t.Fatal("wrong end not counted")
	}
}

func TestHumanCanReplaceCableAndDisturbsTray(t *testing.T) {
	w := newWorld(t, 5, 1, func(fc *faults.Config, cc *Config) {
		cc.WrongEndProb = 0
		fc.TrayDisturbProb = 1
		fc.TouchTransientProb = 0 // isolate tray effects
	})
	l := w.sepLink(t)
	if len(w.net.LinksSharingTray(l)) == 0 {
		t.Skip("no tray mates in this build")
	}
	w.inj.InduceFault(l, faults.CableDamaged)
	out := w.run(t, Task{Link: l, End: faults.EndA, Action: faults.ReplaceCable})
	if !out.Completed || !out.Result.Fixed {
		t.Fatalf("outcome: %+v", out)
	}
	if len(out.Effects) == 0 {
		t.Fatal("cable pull disturbed nothing with TrayDisturbProb=1")
	}
	if d := out.Duration(); d < 2*sim.Hour {
		t.Fatalf("cable replacement took only %v", d)
	}
	if w.pool.Consumed[inventory.PartCable] != 1 {
		t.Fatal("cable not consumed from stock")
	}
}

func TestHumanTouchCausesCascades(t *testing.T) {
	w := newWorld(t, 6, 1, func(fc *faults.Config, cc *Config) {
		fc.TouchTransientProb = 1
		cc.WrongEndProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Oxidation)
	st := w.inj.State(l.ID)
	out := w.run(t, Task{Link: l, End: st.CauseEnd, Action: faults.Reseat})
	if len(out.Effects) == 0 {
		t.Fatal("rough human touch caused no cascades with p=1")
	}
}

func TestStockout(t *testing.T) {
	w := newWorld(t, 7, 1, func(fc *faults.Config, cc *Config) { cc.WrongEndProb = 0 })
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.XcvrDead)
	st := w.inj.State(l.ID)
	for w.pool.Stock(inventory.PartXcvr) > 0 {
		w.pool.Take(inventory.PartXcvr)
	}
	out := w.run(t, Task{Link: l, End: st.CauseEnd, Action: faults.ReplaceXcvr})
	if out.Completed || !out.Stockout {
		t.Fatalf("outcome: %+v", out)
	}
	if w.inj.State(l.ID).InRepair {
		t.Fatal("stockout left link in repair")
	}
}

func TestBusyTechPanics(t *testing.T) {
	w := newWorld(t, 8, 1, nil)
	l := w.sepLink(t)
	tech := w.crew.FindTech()
	w.crew.Execute(tech, Task{Link: l, End: faults.EndA, Action: faults.Reseat}, nil)
	if w.crew.FindTech() != nil {
		t.Fatal("busy tech still findable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double execute")
		}
	}()
	w.crew.Execute(tech, Task{Link: l, End: faults.EndA, Action: faults.Reseat}, nil)
}

func TestEstimateAndStrings(t *testing.T) {
	w := newWorld(t, 9, 1, nil)
	if w.crew.EstimateExecDuration(faults.Reseat) <= 0 {
		t.Fatal("estimate")
	}
	if w.crew.EstimateExecDuration(faults.ReplaceCable) <= w.crew.EstimateExecDuration(faults.Reseat) {
		t.Fatal("cable estimate not larger")
	}
	tech := w.crew.techs[0]
	if tech.String() == "" {
		t.Error("tech string")
	}
	tech.busy = true
	if tech.String() == "" {
		t.Error("busy tech string")
	}
}
