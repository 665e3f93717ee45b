package core

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/diagnosis"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/robot"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticket"
	"repro/internal/topology"
	"repro/internal/vision"
	"repro/internal/workforce"
)

// harness wires a full world around a controller.
type harness struct {
	eng    *sim.Engine
	net    *topology.Network
	bus    *bus.Bus
	inj    *faults.Injector
	mon    *telemetry.Monitor
	store  *ticket.Store
	router *routing.Router
	fleet  *robot.Fleet
	crew   *workforce.Crew
	ctrl   *Controller
}

type harnessOpt struct {
	level          Level
	techs          int
	robots         bool
	rates          bool // background fault rates on
	leaves, spines int  // topology size; 0 means 4x2
	mutFaults      func(*faults.Config)
	mutCfg         func(*Config)
	mutRobots      func(*robot.Config)
	seed           uint64
	// wrapRobots/wrapHumans interpose on the executor backends — watchdog
	// tests use them to script actuator faults or strip capability
	// interfaces.
	wrapRobots func(exec.Executor) exec.Executor
	wrapHumans func(exec.Executor) exec.Executor
}

// drainedLinks counts the links the router has drained.
func (h *harness) drainedLinks() int {
	n := 0
	for _, l := range h.net.Links {
		if h.router.Drained(l.ID) {
			n++
		}
	}
	return n
}

func newHarness(t *testing.T, o harnessOpt) *harness {
	t.Helper()
	if o.leaves == 0 {
		o.leaves, o.spines = 4, 2
	}
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: o.leaves, Spines: o.spines, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed == 0 {
		o.seed = 1
	}
	eng := sim.NewEngine(o.seed)
	fcfg := faults.DefaultConfig()
	if !o.rates {
		fcfg.AnnualRate = map[faults.Cause]float64{}
	}
	if o.mutFaults != nil {
		o.mutFaults(&fcfg)
	}
	inj := faults.NewInjector(eng, n, fcfg)
	mon := telemetry.NewMonitor(eng, n, telemetry.DefaultConfig())
	inj.Subscribe(mon)
	b := bus.New(eng)
	mon.PublishTo(b)
	diag := diagnosis.New(eng, mon, inj)
	store := ticket.NewStore(eng, ticket.DefaultConfig())
	router := routing.NewRouter(n, func(id topology.LinkID) bool {
		return inj.Observable(id) != faults.Down
	})
	pool := inventory.NewPool(eng, inventory.DefaultStock(n), 2*sim.Day)
	rcfg := robot.DefaultConfig()
	rcfg.PrimitiveFailProb = 0.002
	if o.mutRobots != nil {
		o.mutRobots(&rcfg)
	}
	vis := vision.New(eng, vision.DefaultConfig(), 8)
	fleet := robot.NewFleet(eng, n, inj, vis, pool, rcfg)
	if o.robots {
		fleet.DeployPerRow()
	}
	crew := workforce.NewCrew(eng, n, inj, pool, workforce.DefaultConfig(), o.techs)
	cfg := DefaultConfig(o.level)
	if o.mutCfg != nil {
		o.mutCfg(&cfg)
	}
	var robots exec.Executor = robot.NewExecutor(fleet)
	if o.wrapRobots != nil {
		robots = o.wrapRobots(robots)
	}
	var humans exec.Executor = workforce.NewExecutor(crew)
	if o.wrapHumans != nil {
		humans = o.wrapHumans(humans)
	}
	ctrl := New(Deps{
		Eng: eng, Net: n, Inj: inj, Diag: diag, Store: store, Router: router,
		Bus:    b,
		Robots: robots,
		Humans: humans,
		Features: func(id topology.LinkID) []float64 {
			return mon.Snapshot(id).Vector()
		},
	}, cfg)
	return &harness{eng: eng, net: n, bus: b, inj: inj, mon: mon, store: store,
		router: router, fleet: fleet, crew: crew, ctrl: ctrl}
}

func (h *harness) sepLink(t *testing.T) *topology.Link {
	t.Helper()
	for _, l := range h.net.SwitchLinks() {
		if l.HasSeparableFiber() {
			return l
		}
	}
	t.Fatal("no separable link")
	return nil
}

func TestL3RobotRepairInMinutes(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
		}})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(6 * sim.Hour)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d (opened %d)", sum.Resolved, sum.Total)
	}
	if sum.MeanWindow > 30*sim.Minute {
		t.Fatalf("L3 service window %v, want minutes", sum.MeanWindow)
	}
	st := h.ctrl.Stats()
	if st.RobotTasks == 0 || st.HumanTasks != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if h.inj.Observable(l.ID) != faults.Healthy {
		t.Fatal("link not repaired")
	}
}

func TestL0HumanRepairTakesHours(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L0, techs: 2, robots: true, // robots present but unused at L0
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
		}})
	l := h.sepLink(t)
	h.eng.Schedule(10*sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(3 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d", sum.Resolved)
	}
	if sum.MeanWindow < 30*sim.Minute {
		t.Fatalf("L0 service window %v, implausibly fast", sum.MeanWindow)
	}
	st := h.ctrl.Stats()
	if st.RobotTasks != 0 || st.HumanTasks == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEscalationLadderReachesReplacement(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.DownManifest[faults.XcvrDead] = 1
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.XcvrDead) })
	h.eng.RunUntil(2 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d", sum.Resolved)
	}
	tk := h.store.All()[0]
	if len(tk.Attempts) < 2 {
		t.Fatalf("attempts = %d, expected ladder escalation", len(tk.Attempts))
	}
	last := tk.Attempts[len(tk.Attempts)-1]
	if last.Action != faults.ReplaceXcvr || !last.Fixed {
		t.Fatalf("final attempt: %+v", last)
	}
	// Earlier rungs were tried first.
	if tk.Attempts[0].Action != faults.Reseat {
		t.Fatalf("first attempt: %v", tk.Attempts[0].Action)
	}
}

func TestHumanOnlyActionFallsToCrewAtL3(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.DownManifest[faults.CableDamaged] = 1
		}})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.CableDamaged) })
	h.eng.RunUntil(6 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d", sum.Resolved)
	}
	st := h.ctrl.Stats()
	if st.HumanTasks == 0 {
		t.Fatalf("cable replacement never reached a human: %+v", st)
	}
	tk := h.store.All()[0]
	last := tk.Attempts[len(tk.Attempts)-1]
	if last.Action != faults.ReplaceCable {
		t.Fatalf("final action %v", last.Action)
	}
}

func TestImpactAwarePreDrain(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
		}})
	l := h.sepLink(t)
	maxDrained := 0
	h.eng.Every(0, sim.Second, "watch-drains", func(sim.Time) {
		if d := h.drainedLinks(); d > maxDrained {
			maxDrained = d
		}
	})
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(3 * sim.Hour)

	if h.ctrl.Stats().PreDrains == 0 {
		t.Fatal("no pre-drains at L3 with ImpactAware")
	}
	if maxDrained < 2 {
		t.Fatalf("max drained = %d, want target + neighbours", maxDrained)
	}
	if h.drainedLinks() != 0 {
		t.Fatal("drains not released after repair")
	}
}

func TestImpactAwareOffMeansNoDrains(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutCfg: func(c *Config) { c.ImpactAware = false },
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
		}})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(3 * sim.Hour)
	if h.ctrl.Stats().PreDrains != 0 {
		t.Fatal("pre-drains with ImpactAware off")
	}
}

func TestL2DegradedWaitsForSupervisionShift(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L2, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 0 // gray: a P1 ticket
		}})
	l := h.sepLink(t)
	// Fault at 02:00; shift starts 08:00. The link flaps, detection flags
	// it within a couple of hours, and the P1 ticket waits for the shift.
	h.eng.Schedule(2*sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d (total %d)", sum.Resolved, sum.Total)
	}
	tk := h.store.All()[0]
	if tk.ResolvedAt < 8*sim.Hour {
		t.Fatalf("L2 repaired degraded link at %v, before supervision shift", tk.ResolvedAt)
	}
	if tk.ResolvedAt > 10*sim.Hour {
		t.Fatalf("L2 repair at %v, long after shift start", tk.ResolvedAt)
	}
	if h.ctrl.Stats().RobotTasks == 0 {
		t.Fatal("L2 did not use robots")
	}
}

func TestL2OutageCallsOutTechnicianOffShift(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L2, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1 // fail-stop: a P0 ticket
		}})
	l := h.sepLink(t)
	h.eng.Schedule(2*sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d", sum.Resolved)
	}
	tk := h.store.All()[0]
	// The on-call human handles the outage well before shift start.
	if tk.ResolvedAt >= 8*sim.Hour {
		t.Fatalf("L2 outage waited for the shift: resolved at %v", tk.ResolvedAt)
	}
	if h.ctrl.Stats().HumanTasks == 0 {
		t.Fatal("no human callout for the off-shift outage")
	}
}

func TestL1ReservesTechnician(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L1, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
		}})
	l := h.sepLink(t)
	h.eng.Schedule(10*sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(2 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d", sum.Resolved)
	}
	// L1 pays human dispatch latency: slower than L3's minutes.
	if sum.MeanWindow < 20*sim.Minute {
		t.Fatalf("L1 window %v implausibly fast", sum.MeanWindow)
	}
	if h.ctrl.Stats().RobotTasks == 0 {
		t.Fatal("L1 did not use the robot")
	}
	// Technician must be free again afterwards.
	if h.crew.FindTech() == nil {
		t.Fatal("technician still reserved")
	}
}

func TestProactiveCampaignTriggers(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L4, techs: 1, robots: true,
		leaves: 8, spines: 2,
		mutCfg: func(c *Config) {
			c.ProactiveTrigger = 2
			c.Predictive = false
		},
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
			fc.TouchPermanentProb = 0
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	// Two oxidation faults on links of the same spine, spaced out.
	spine := h.net.DevicesOfKind(topology.SpineSwitch)[0]
	var spineLinks []*topology.Link
	for _, np := range h.net.Neighbors(spine.ID) {
		if np.Link.Cable.Class.NeedsTransceiver() {
			spineLinks = append(spineLinks, np.Link)
		}
	}
	if len(spineLinks) < 3 {
		t.Fatalf("spine has %d pluggable links", len(spineLinks))
	}
	h.eng.Schedule(sim.Hour, "break1", func() { h.inj.InduceFault(spineLinks[0], faults.Oxidation) })
	h.eng.Schedule(5*sim.Hour, "break2", func() { h.inj.InduceFault(spineLinks[1], faults.Oxidation) })
	h.eng.RunUntil(3 * sim.Day)

	st := h.ctrl.Stats()
	if st.ProactiveCampaigns == 0 {
		t.Fatalf("no campaign after 2 reseat fixes on one switch: %+v", st)
	}
	if st.ProactiveTasks == 0 {
		t.Fatal("campaign opened no tasks")
	}
	sum := h.store.Summarize()
	if sum.ByKind[ticket.Proactive] == 0 {
		t.Fatal("no proactive tickets filed")
	}
	// Proactive work eventually resolves too.
	if sum.Resolved < 2+sum.ByKind[ticket.Proactive]/2 {
		t.Fatalf("resolved=%d of total=%d", sum.Resolved, sum.Total)
	}
}

func TestUtilizationGateDefersProactive(t *testing.T) {
	util := 0.9
	h := newHarness(t, harnessOpt{level: L4, techs: 1, robots: true,
		mutCfg: func(c *Config) {
			c.ProactiveTrigger = 1
			c.Predictive = false
			c.UtilFn = func() float64 { return util }
		},
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
			fc.TouchPermanentProb = 0
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(12 * sim.Hour)

	sum := h.store.Summarize()
	if sum.ByKind[ticket.Proactive] == 0 {
		t.Fatal("no proactive tickets")
	}
	// Under high utilization, proactive tickets stay unresolved.
	for _, tk := range h.store.All() {
		if tk.Kind == ticket.Proactive && tk.Status == ticket.Resolved {
			t.Fatal("proactive work ran during high utilization")
		}
	}
	// Drop utilization: the deferred work proceeds.
	util = 0.1
	h.eng.RunUntil(h.eng.Now() + 2*sim.Day)
	resolved := 0
	for _, tk := range h.store.All() {
		if tk.Kind == ticket.Proactive && tk.Status == ticket.Resolved {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("proactive work never ran after utilization dropped")
	}
}

func TestYearLongSmokeAtL3(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 2, robots: true, rates: true,
		mutFaults: func(fc *faults.Config) {
			for c := range fc.AnnualRate {
				fc.AnnualRate[c] *= 20 // compress years of failures into the run
			}
		}})
	h.eng.RunUntil(180 * sim.Day)
	sum := h.store.Summarize()
	if sum.Total == 0 {
		t.Fatal("no tickets in 180 days with default rates")
	}
	if sum.Resolved == 0 {
		t.Fatal("nothing resolved")
	}
	// The overwhelming majority of tickets must be closed.
	open := sum.Total - sum.Resolved - sum.Cancelled
	if open > sum.Total/4 {
		t.Fatalf("too many stuck tickets: %d open of %d", open, sum.Total)
	}
	// Every drain is held by an in-flight work item — none leaked.
	if h.drainedLinks() != h.ctrl.HeldDrains() {
		t.Fatalf("leaked drains: router=%d held=%d", h.drainedLinks(), h.ctrl.HeldDrains())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		h := newHarness(t, harnessOpt{level: L3, techs: 2, robots: true, rates: true, seed: 99,
			mutFaults: func(fc *faults.Config) {
				for c := range fc.AnnualRate {
					fc.AnnualRate[c] *= 20
				}
			}})
		h.eng.RunUntil(60 * sim.Day)
		sum := h.store.Summarize()
		return sum.Total, sum.Resolved
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", t1, r1, t2, r2)
	}
}

func TestPredictorTrainsOnSeparableData(t *testing.T) {
	p := NewPredictor()
	if p.Score([]float64{1, 2}) != 0 {
		t.Fatal("untrained score nonzero")
	}
	// Synthetic: label = x0 > 5 with a margin.
	var X [][]float64
	var y []bool
	rng := sim.NewEngine(5).RNG("synth")
	for i := 0; i < 2000; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64()
		X = append(X, []float64{x0, x1})
		y = append(y, x0 > 5)
	}
	p.Train(X, y)
	if !p.Trained {
		t.Fatal("not trained")
	}
	q := p.Evaluate(X, y, 0.5)
	if q.F1 < 0.9 {
		t.Fatalf("F1 = %v on separable data (q=%+v)", q.F1, q)
	}
	if q.Precision <= 0 || q.Recall <= 0 {
		t.Fatal("degenerate quality")
	}
}

func TestPredictorDegenerateDatasets(t *testing.T) {
	p := NewPredictor()
	p.Train(nil, nil)
	if p.Trained {
		t.Fatal("trained on empty data")
	}
	p.Train([][]float64{{1}, {2}}, []bool{false, false})
	if p.Trained {
		t.Fatal("trained on single-class data")
	}
}

func TestPredictiveLoopLifecycle(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L4, techs: 2, robots: true, rates: true,
		mutFaults: func(fc *faults.Config) {
			for c := range fc.AnnualRate {
				fc.AnnualRate[c] *= 20
			}
		},
		mutCfg: func(c *Config) {
			c.Proactive = false
			c.PredictTrainAfter = 30 * sim.Day
			c.PredictThreshold = 0.6
		}})
	h.eng.RunUntil(120 * sim.Day)
	if h.ctrl.planner.predictor == nil {
		t.Fatal("no predictor at L4")
	}
	if !h.ctrl.planner.predictor.Trained {
		// Training can legitimately fail only if no failures happened at all.
		X, y := h.ctrl.CollectorDataset()
		pos := 0
		for _, v := range y {
			if v {
				pos++
			}
		}
		t.Fatalf("predictor untrained after 120d (samples=%d, positives=%d)", len(X), pos)
	}
}

func TestLevelString(t *testing.T) {
	if L3.String() != "L3" {
		t.Fatal("level string")
	}
}

func TestSafetyInterlockKeepsRobotsOutOfOccupiedRows(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.DownManifest[faults.CableDamaged] = 1
			fc.TouchTransientProb = 0
			fc.TouchPermanentProb = 0
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	// Two faults in the same row: a cable job (human-only, hours of
	// hands-on) and an oxidation (robot-fixable in minutes). While the
	// technician works the row, the robot must hold off.
	var cableLink, oxLink *topology.Link
	for _, l := range h.net.SwitchLinks() {
		if !l.HasSeparableFiber() {
			continue
		}
		if cableLink == nil {
			cableLink = l
			continue
		}
		if l.A.Device.Loc.Row == cableLink.A.Device.Loc.Row && oxLink == nil {
			oxLink = l
		}
	}
	if cableLink == nil || oxLink == nil {
		t.Skip("no two separable links share a row in this build")
	}
	h.eng.Schedule(10*sim.Hour, "break-cable", func() { h.inj.InduceFault(cableLink, faults.CableDamaged) })
	// Break the second link once the technician is hands-on (dispatch takes
	// roughly an hour mid-shift).
	h.eng.Schedule(14*sim.Hour, "break-ox", func() {
		if h.inj.State(oxLink.ID).Cause == faults.None {
			h.inj.InduceFault(oxLink, faults.Oxidation)
		}
	})
	h.eng.RunUntil(3 * sim.Day)

	st := h.ctrl.Stats()
	if st.SafetyHolds == 0 {
		t.Skip("technician was not hands-on when the robot wanted the row (timing-dependent); invariant covered when holds occur")
	}
	// Both tickets still resolve.
	sum := h.store.Summarize()
	if sum.Resolved != sum.Total {
		t.Fatalf("resolved %d of %d with safety holds", sum.Resolved, sum.Total)
	}
}

func TestJournalRecordsDecisionTrail(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
		}})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(6 * sim.Hour)

	entries := h.ctrl.Journal(0)
	if len(entries) < 3 {
		t.Fatalf("journal has %d entries", len(entries))
	}
	kinds := map[EventKind]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
		if e.String() == "" {
			t.Fatal("empty journal line")
		}
	}
	for _, want := range []EventKind{EvTicketOpened, EvDispatchRobot, EvPreDrain, EvTicketResolved} {
		if !kinds[want] {
			t.Fatalf("journal missing %v; have %v", want, entries)
		}
	}
	// Entries are time-ordered.
	for i := 1; i < len(entries); i++ {
		if entries[i].At < entries[i-1].At {
			t.Fatal("journal out of order")
		}
	}
	// Tail limiting works.
	if got := h.ctrl.Journal(2); len(got) != 2 {
		t.Fatalf("tail(2) = %d entries", len(got))
	}
}

func TestJournalRingWraps(t *testing.T) {
	var j journal
	for i := 0; i < journalCap+10; i++ {
		j.add(JournalEntry{At: sim.Time(i), Ticket: i})
	}
	all := j.tail(0)
	if len(all) != journalCap {
		t.Fatalf("ring holds %d, want %d", len(all), journalCap)
	}
	if all[0].Ticket != 10 || all[len(all)-1].Ticket != journalCap+9 {
		t.Fatalf("ring contents wrong: first=%d last=%d", all[0].Ticket, all[len(all)-1].Ticket)
	}
	if EvSafetyHold.String() == "" || EventKind(99).String() == "" {
		t.Fatal("kind names")
	}
}
