package robot

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/vision"
)

type world struct {
	eng   *sim.Engine
	net   *topology.Network
	inj   *faults.Injector
	fleet *Fleet
	pool  *inventory.Pool
}

func newWorld(t *testing.T, seed uint64, mutate func(*faults.Config, *Config)) *world {
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
	rcfg := DefaultConfig()
	if mutate != nil {
		mutate(&fcfg, &rcfg)
	}
	inj := faults.NewInjector(eng, n, fcfg)
	vis := vision.New(eng, vision.DefaultConfig(), 8)
	pool := inventory.NewPool(eng, inventory.DefaultStock(n), 2*sim.Day)
	fleet := NewFleet(eng, n, inj, vis, pool, rcfg)
	return &world{eng: eng, net: n, inj: inj, fleet: fleet, pool: pool}
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

func (w *world) hallUnit() *Unit {
	return w.fleet.AddUnit("r0", HallScope, topology.Location{Row: 0, Rack: 0})
}

// runTask executes a task and returns the outcome once the engine settles.
func (w *world) runTask(t *testing.T, u *Unit, task exec.Task) exec.Outcome {
	t.Helper()
	var out *exec.Outcome
	w.fleet.Execute(u, task, func(o exec.Outcome) { out = &o })
	w.eng.RunUntil(w.eng.Now() + 12*sim.Hour)
	if out == nil {
		t.Fatal("task never completed")
	}
	return *out
}

func TestReseatFixesOxidation(t *testing.T) {
	w := newWorld(t, 1, func(fc *faults.Config, rc *Config) {
		fc.FixProb[faults.Reseat][faults.Oxidation] = 1
		rc.PrimitiveFailProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Oxidation)
	st := w.inj.State(l.ID)
	u := w.hallUnit()
	out := w.runTask(t, u, exec.Task{Link: l, End: st.CauseEnd, Action: faults.Reseat})
	if !out.Completed || !out.Fixed {
		t.Fatalf("outcome: %+v", out)
	}
	if w.inj.Observable(l.ID) != faults.Healthy {
		t.Fatal("link not healthy after reseat")
	}
	// Duration plausibility: minutes, not hours and not seconds.
	if d := out.Duration(); d < 30*sim.Second || d > 15*sim.Minute {
		t.Fatalf("reseat duration %v", d)
	}
	if u.BusyTime != out.Duration() {
		t.Fatalf("unit busy %v for a %v task", u.BusyTime, out.Duration())
	}
	if !u.Available() {
		t.Fatal("unit not released")
	}
}

func TestCleanCycleFixesContamination(t *testing.T) {
	w := newWorld(t, 2, func(fc *faults.Config, rc *Config) {
		fc.FixProb[faults.Clean][faults.Contamination] = 1
		fc.CleanRecontaminate = 0
		rc.PrimitiveFailProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Contamination)
	st := w.inj.State(l.ID)
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: st.CauseEnd, Action: faults.Clean})
	if !out.Completed || !out.Fixed || out.NeedsHuman {
		t.Fatalf("outcome: %+v note=%s", out, out.Note)
	}
	if w.inj.State(l.ID).Ends[st.CauseEnd].Dirt != 0 {
		t.Fatal("dirt left after verified clean")
	}
	// Paper: the entire operation takes a few minutes.
	if d := out.Duration(); d < sim.Minute || d > 20*sim.Minute {
		t.Fatalf("clean cycle duration %v", d)
	}
}

func TestReplaceXcvrConsumesSpare(t *testing.T) {
	w := newWorld(t, 3, func(fc *faults.Config, rc *Config) {
		rc.PrimitiveFailProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.XcvrDead)
	st := w.inj.State(l.ID)
	before := w.pool.Stock(inventory.PartXcvr)
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: st.CauseEnd, Action: faults.ReplaceXcvr})
	if !out.Completed || !out.Fixed {
		t.Fatalf("outcome: %+v", out)
	}
	if w.pool.Stock(inventory.PartXcvr) != before-1 {
		t.Fatal("spare not consumed")
	}
}

func TestStockoutReportsWithoutTouchingLink(t *testing.T) {
	w := newWorld(t, 4, func(fc *faults.Config, rc *Config) {
		rc.PrimitiveFailProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.XcvrDead)
	st := w.inj.State(l.ID)
	// Drain the pool.
	for w.pool.Stock(inventory.PartXcvr) > 0 {
		w.pool.Take(inventory.PartXcvr)
	}
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: st.CauseEnd, Action: faults.ReplaceXcvr})
	if out.Completed || !out.Stockout {
		t.Fatalf("outcome: %+v", out)
	}
	if w.inj.State(l.ID).InRepair {
		t.Fatal("link left in repair state")
	}
}

func TestHumanOnlyActionsEscalate(t *testing.T) {
	w := newWorld(t, 5, nil)
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.CableDamaged)
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: faults.EndA, Action: faults.ReplaceCable})
	if !out.NeedsHuman || out.Completed {
		t.Fatalf("outcome: %+v", out)
	}
	if !CanPerform(faults.Reseat) || CanPerform(faults.ReplaceSwitchPort) {
		t.Fatal("capability matrix")
	}
}

func TestScopeEnforcement(t *testing.T) {
	w := newWorld(t, 6, nil)
	l := w.sepLink(t)
	rackUnit := w.fleet.AddUnit("rack", RackScope, topology.Location{Row: 99, Rack: 99})
	if rackUnit.CanReach(l.A.Device.Loc) {
		t.Fatal("rack unit reaches a foreign rack")
	}
	rowUnit := w.fleet.AddUnit("row", RowScope, topology.Location{Row: l.A.Device.Loc.Row})
	if !rowUnit.CanReach(l.A.Device.Loc) {
		t.Fatal("row unit cannot reach its own row")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Execute out of scope did not panic")
		}
	}()
	w.fleet.Execute(rackUnit, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat}, nil)
}

func TestBusyUnitRejectsSecondTask(t *testing.T) {
	w := newWorld(t, 7, nil)
	l := w.sepLink(t)
	u := w.hallUnit()
	w.fleet.Execute(u, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat}, nil)
	if u.Available() {
		t.Fatal("unit still available while executing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double execute did not panic")
		}
	}()
	w.fleet.Execute(u, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat}, nil)
}

func TestMechanicalFailureEscalatesAndCanBreakUnit(t *testing.T) {
	w := newWorld(t, 8, func(fc *faults.Config, rc *Config) {
		rc.PrimitiveFailProb = 1 // always fails, retry also fails
		rc.BreakProb = 1
		rc.RepairTime = 15 * sim.Hour // longer than runTask's 12h settle window
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Oxidation)
	u := w.hallUnit()
	out := w.runTask(t, u, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat})
	if out.Completed || !out.NeedsHuman {
		t.Fatalf("outcome: %+v", out)
	}
	if !u.broken {
		t.Fatal("unit not broken with BreakProb=1")
	}
	if w.inj.State(l.ID).InRepair {
		t.Fatal("aborted task left link in repair")
	}
	// Unit comes back after the repair time.
	w.eng.RunUntil(w.eng.Now() + 16*sim.Hour)
	if u.broken || !u.Available() {
		t.Fatal("unit never repaired")
	}
}

func TestPerceptionFailureEscalates(t *testing.T) {
	w := newWorld(t, 9, func(fc *faults.Config, rc *Config) {
		rc.PrimitiveFailProb = 0
	})
	// Cripple perception: enormous synthetic fleet diversity.
	w.fleet.vis = vision.New(w.eng, vision.Config{
		RecognitionBase: 0, MinAccuracy: 0, DiversityPenalty: 0, OcclusionPenalty: 0,
		InspectSecondsPerCore: sim.Const(3), DirtDetectThreshold: 0.25,
	}, 1)
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Oxidation)
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat})
	if !out.NeedsHuman || out.Completed {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Note == "" {
		t.Fatal("no note on escalation")
	}
}

func TestBatteryChargeCycle(t *testing.T) {
	w := newWorld(t, 10, func(fc *faults.Config, rc *Config) {
		rc.BatteryTasks = 2
		rc.PrimitiveFailProb = 0
		rc.ChargeTime = 100 * sim.Hour // outlast the test's settle windows
	})
	l := w.sepLink(t)
	u := w.hallUnit()
	for i := 0; i < 2; i++ {
		out := w.runTask(t, u, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat})
		if !out.Completed {
			t.Fatalf("task %d failed: %+v", i, out)
		}
	}
	if !u.charging {
		t.Fatal("unit not charging after battery capacity")
	}
	if u.Available() {
		t.Fatal("charging unit reports available")
	}
	w.eng.RunUntil(w.eng.Now() + 101*sim.Hour)
	if !u.Available() {
		t.Fatal("unit never finished charging")
	}
}

func TestCleanVerifyRetryThenHuman(t *testing.T) {
	w := newWorld(t, 11, func(fc *faults.Config, rc *Config) {
		// Cleaning never works: verification keeps failing.
		fc.FixProb[faults.Clean] = map[faults.Cause]float64{}
		fc.ReseatMaskProb = 0
		rc.PrimitiveFailProb = 0
		rc.MaxCleanRetries = 2
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Contamination)
	st := w.inj.State(l.ID)
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: st.CauseEnd, Action: faults.Clean})
	if !out.NeedsHuman {
		t.Fatalf("robot did not request human support: %+v", out)
	}
	attempted := w.inj.Stats().RepairsAttempted
	if attempted != 3 { // initial + 2 retries
		t.Fatalf("repair attempts = %d, want 3", attempted)
	}
}

func TestDeployPerRowAndClaim(t *testing.T) {
	w := newWorld(t, 12, nil)
	units := w.fleet.DeployPerRow()
	rows := map[int]bool{}
	for _, d := range w.net.Devices {
		rows[d.Loc.Row] = true
	}
	if len(units) != len(rows) {
		t.Fatalf("deployed %d units for %d equipment rows", len(units), len(rows))
	}
	l := w.sepLink(t)
	a := w.fleet.Claim(l.A.Device.Loc)
	if a == nil {
		t.Fatal("no unit claimed for a covered row")
	}
	if !a.(*Unit).CanReach(l.A.Device.Loc) {
		t.Fatal("claimed unit cannot reach")
	}
	if w.fleet.Claim(topology.Location{Row: 999}) != nil {
		t.Fatal("found unit for uncovered row")
	}
	if len(w.fleet.Units()) != len(units) {
		t.Fatal("Units() mismatch")
	}
}

func TestEstimateDurationOrdering(t *testing.T) {
	w := newWorld(t, 13, nil)
	l := w.sepLink(t)
	u := w.hallUnit()
	reseat := w.fleet.EstimateDuration(u, exec.Task{Link: l, End: faults.EndA, Action: faults.Reseat})
	clean := w.fleet.EstimateDuration(u, exec.Task{Link: l, End: faults.EndA, Action: faults.Clean})
	if reseat <= 0 || clean <= reseat {
		t.Fatalf("estimates: reseat=%v clean=%v", reseat, clean)
	}
}

func TestUnitAndScopeStrings(t *testing.T) {
	u := &Unit{name: "r1", Scope: RowScope}
	if u.String() == "" {
		t.Error("unit string")
	}
	u.busy = true
	if u.String() == "" {
		t.Error("busy string")
	}
	if RackScope.String() != "rack" || Scope(9).String() == "" {
		t.Error("scope names")
	}
}

func TestCleaningSuppliesStockout(t *testing.T) {
	w := newWorld(t, 14, func(fc *faults.Config, rc *Config) {
		rc.PrimitiveFailProb = 0
	})
	l := w.sepLink(t)
	w.inj.InduceFault(l, faults.Contamination)
	st := w.inj.State(l.ID)
	for w.pool.Stock(inventory.PartCleaningSupplies) > 0 {
		w.pool.Take(inventory.PartCleaningSupplies)
	}
	out := w.runTask(t, w.hallUnit(), exec.Task{Link: l, End: st.CauseEnd, Action: faults.Clean})
	if out.Completed || !out.Stockout {
		t.Fatalf("outcome: %+v", out)
	}
	if w.inj.State(l.ID).InRepair {
		t.Fatal("stockout left link in repair")
	}
}
