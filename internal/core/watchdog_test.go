package core

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/robot"
	"repro/internal/sim"
	"repro/internal/topology"
)

// scriptedExec wraps an executor backend with a per-dispatch fault plan:
// entry i applies to the i-th Execute call. Modes: "stall" (no work, no
// report — only the watchdog recovers), "lost" (work performed, report
// dropped), "slow" (work performed, report delayed by slowBy), "stockout"
// (no work; a fabricated stockout is reported one event later, then
// afterStockout runs). Dispatches beyond the plan pass through untouched.
// Unlike the probabilistic chaos wrapper in internal/exec, the plan is
// exact, so tests can assert precise watchdog fire counts. It deliberately
// does not implement exec.DurationEstimator: the watchdog then arms at the
// configured floor, a deadline the tests can predict.
type scriptedExec struct {
	inner         exec.Executor
	eng           *sim.Engine
	plan          []string
	slowBy        sim.Time
	afterStockout func()
	n             int
}

func (s *scriptedExec) CanPerform(a faults.Action) bool        { return s.inner.CanPerform(a) }
func (s *scriptedExec) Claim(loc topology.Location) exec.Actor { return s.inner.Claim(loc) }

func (s *scriptedExec) Execute(a exec.Actor, t exec.Task, done func(exec.Outcome)) {
	mode := ""
	if s.n < len(s.plan) {
		mode = s.plan[s.n]
	}
	s.n++
	switch mode {
	case "stall":
		// Wedged before doing anything: no work, no report.
	case "lost":
		s.inner.Execute(a, t, func(exec.Outcome) {})
	case "slow":
		s.inner.Execute(a, t, func(out exec.Outcome) {
			s.eng.After(s.slowBy, "scripted-slow-report", func() { done(out) })
		})
	case "stockout":
		start := s.eng.Now()
		s.eng.After(0, "scripted-stockout-report", func() {
			done(exec.Outcome{Actor: a.Name(), Task: t, Started: start, Finished: s.eng.Now(),
				Stockout: true, Note: "scripted: no spare on the shelf"})
			if s.afterStockout != nil {
				s.afterStockout()
			}
		})
	default:
		s.inner.Execute(a, t, done)
	}
}

// watchdogHarness builds the standard watchdog test world: a single
// oxidation fault that a reseat always fixes, and one lane wrapped in a
// scripted fault plan. The robot lane is L3 with one technician and a robot
// fleet. The human lane is L0 with one technician; a technician's dispatch
// overhead and on-call delay alone can exceed the default floor, so that
// lane's floor is raised above every natural human duration (at most ~17 h)
// to keep scripted stalls the only fires.
func watchdogHarness(t *testing.T, human bool, plan []string, slowBy sim.Time) (*harness, *scriptedExec) {
	t.Helper()
	sx := &scriptedExec{plan: plan, slowBy: slowBy}
	wrap := func(inner exec.Executor) exec.Executor {
		sx.inner = inner
		return sx
	}
	o := harnessOpt{level: L3, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
			fc.TouchPermanentProb = 0
		},
		mutRobots:  func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
		wrapRobots: wrap,
	}
	if human {
		o.level, o.robots, o.wrapRobots, o.wrapHumans = L0, false, nil, wrap
		o.mutCfg = func(c *Config) { c.WatchdogFloor = sim.Day }
	}
	h := newHarness(t, o)
	sx.eng = h.eng
	return h, sx
}

// TestWatchdogStateMachine drives the stall → timeout → retry → escalate
// machinery end to end for each actuator failure mode, on either lane, and
// asserts the core invariant: a misbehaving actuator delays a ticket but
// never wedges it, and every resource the force-failed attempt held is
// released. The lane differences are pinned too: only robot-lane fires
// degrade a ticket, and only a robot stockout is journalled.
func TestWatchdogStateMachine(t *testing.T) {
	cases := []struct {
		name   string
		human  bool // script the human lane (L0) instead of the robot lane (L3)
		plan   []string
		slowBy sim.Time
		// Exact expected counters: the scripted plan makes them deterministic.
		wantFires     int
		wantDegraded  int
		wantLate      int
		wantHuman     bool // the robot-lane ticket reaches a technician
		wantStockouts int  // stockout-wait journal entries
	}{
		{
			name:      "stall then retry recovers",
			plan:      []string{"stall"},
			wantFires: 1,
		},
		{
			// RobotFailLimit (3) consecutive stalls degrade the ticket to the
			// human lane for good.
			name:         "repeated stalls degrade to human",
			plan:         []string{"stall", "stall", "stall"},
			wantFires:    3,
			wantDegraded: 1,
			wantHuman:    true,
		},
		{
			// Work done, report dropped: the watchdog retry performs a
			// redundant attempt on the now-healthy link and settles.
			name:      "lost outcome retries over healthy link",
			plan:      []string{"lost"},
			wantFires: 1,
		},
		{
			// Report delayed past the deadline: the watchdog wins the race,
			// and the late outcome must land inertly (no double release).
			name:      "slow completion loses race to watchdog",
			plan:      []string{"slow"},
			slowBy:    6 * sim.Hour,
			wantFires: 1,
			wantLate:  1,
		},
		{
			// Only robot-lane fires count toward RobotFailLimit.
			name:      "human stalls fire but never degrade",
			human:     true,
			plan:      []string{"stall", "stall", "stall"},
			wantFires: 3,
		},
		{
			name:          "robot stockout parks and journals",
			plan:          []string{"stockout"},
			wantStockouts: 1,
		},
		{
			name:  "human stockout parks silently",
			human: true,
			plan:  []string{"stockout"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, sx := watchdogHarness(t, tc.human, tc.plan, tc.slowBy)
			l := h.sepLink(t)
			h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
			// A stockout is no physical attempt: the ticket parks for
			// StockoutRetry with its attempt count unchanged.
			stockoutAt := sim.Forever
			sx.afterStockout = func() {
				stockoutAt = h.eng.Now()
				tk := h.store.All()[0]
				w := h.ctrl.act.work[tk.ID]
				if w == nil || w.active || w.attempts != 0 {
					t.Fatalf("after a stockout: work item %+v, want parked with 0 attempts", w)
				}
				if want := stockoutAt + h.ctrl.cfg.StockoutRetry; w.notBefore != want {
					t.Fatalf("parked until %v, want %v", w.notBefore, want)
				}
			}
			// A human-lane floor is a day and its cases stall up to three
			// times, so only that lane gets the longer horizon.
			until := 3 * sim.Day
			if tc.human {
				until = 8 * sim.Day
			}
			h.eng.RunUntil(until)

			sum := h.store.Summarize()
			if sum.Resolved != 1 {
				t.Fatalf("resolved = %d of %d: actuator fault wedged the ticket", sum.Resolved, sum.Total)
			}
			if h.inj.Observable(l.ID) != faults.Healthy {
				t.Fatal("link not repaired")
			}
			st := h.ctrl.Stats()
			if st.WatchdogFires != tc.wantFires {
				t.Fatalf("WatchdogFires = %d, want %d", st.WatchdogFires, tc.wantFires)
			}
			if st.DegradedTickets != tc.wantDegraded {
				t.Fatalf("DegradedTickets = %d, want %d", st.DegradedTickets, tc.wantDegraded)
			}
			if st.LateOutcomes != tc.wantLate {
				t.Fatalf("LateOutcomes = %d, want %d", st.LateOutcomes, tc.wantLate)
			}
			switch {
			case tc.human && st.RobotTasks != 0:
				t.Fatalf("robot dispatched at L0: %+v", st)
			case (tc.human || tc.wantHuman) && st.HumanTasks == 0:
				t.Fatalf("ticket never reached the human lane: %+v", st)
			case !tc.human && !tc.wantHuman && st.HumanTasks != 0:
				t.Fatalf("ticket escalated to a human without degradation: %+v", st)
			}
			// Every force-fail is a recorded (auditable) attempt.
			tk := h.store.All()[0]
			forced := 0
			for _, at := range tk.Attempts {
				if at.Note == "watchdog: no outcome within budget" {
					forced++
				}
			}
			if forced != tc.wantFires {
				t.Fatalf("%d force-failed attempts recorded, want %d", forced, tc.wantFires)
			}
			// A stockout journals stockout-wait on the robot lane only, and
			// the next dispatch waits out the park.
			waits := 0
			var dispatched []sim.Time
			for _, e := range h.ctrl.Journal(0) {
				switch e.Kind {
				case EvStockoutWait:
					waits++
				case EvDispatchRobot, EvDispatchHuman:
					dispatched = append(dispatched, e.At)
				}
			}
			if waits != tc.wantStockouts {
				t.Fatalf("%d stockout-wait entries, want %d", waits, tc.wantStockouts)
			}
			if stockoutAt != sim.Forever {
				if len(dispatched) < 2 || dispatched[1] < stockoutAt+h.ctrl.cfg.StockoutRetry {
					t.Fatalf("dispatches at %v: the retry did not wait out the %v park from %v",
						dispatched, h.ctrl.cfg.StockoutRetry, stockoutAt)
				}
			} else if tc.plan[0] == "stockout" {
				t.Fatal("the scripted stockout was never reported")
			}
			// The watchdog released everything the attempts held: no leaked
			// drains, no retained work item, and the technician pool intact.
			if h.drainedLinks() != 0 || h.ctrl.HeldDrains() != 0 {
				t.Fatalf("leaked drains: router=%d held=%d", h.drainedLinks(), h.ctrl.HeldDrains())
			}
			if len(h.ctrl.act.work) != 0 {
				t.Fatalf("work map retains %d item(s) after resolution", len(h.ctrl.act.work))
			}
			if h.crew.FindTech() == nil {
				t.Fatal("technician still reserved after resolution")
			}
			// The first watchdog cannot fire before the configured floor.
			if tc.wantFires > 0 && tk.ResolvedAt < sim.Hour+h.ctrl.cfg.WatchdogFloor {
				t.Fatalf("resolved at %v, before the first watchdog deadline could expire", tk.ResolvedAt)
			}
		})
	}
}

// TestRetryBackoffDoublesAndCaps pins the deterministic backoff schedule:
// base doubled per recorded attempt, clamped at the cap, zero when disabled.
func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	a := &Act{c: &Controller{cfg: Config{RetryBackoff: 15 * sim.Minute, RetryBackoffCap: 6 * sim.Hour}}}
	cases := []struct {
		attempt int
		want    sim.Time
	}{
		{0, 15 * sim.Minute},
		{1, 15 * sim.Minute},
		{2, 30 * sim.Minute},
		{3, sim.Hour},
		{4, 2 * sim.Hour},
		{5, 4 * sim.Hour},
		{6, 6 * sim.Hour},
		{12, 6 * sim.Hour},
	}
	for _, tc := range cases {
		if got := a.retryBackoff(tc.attempt); got != tc.want {
			t.Errorf("retryBackoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	off := &Act{c: &Controller{cfg: Config{}}}
	if got := off.retryBackoff(5); got != 0 {
		t.Errorf("disabled backoff returned %v", got)
	}
}

// bareExec strips every optional capability interface except the duration
// estimator from an executor — the shape of a minimal third-party human
// backend with no operator pool, shift calendar, or row occupancy.
type bareExec struct{ inner exec.Executor }

func (b bareExec) CanPerform(a faults.Action) bool        { return b.inner.CanPerform(a) }
func (b bareExec) Claim(loc topology.Location) exec.Actor { return b.inner.Claim(loc) }
func (b bareExec) Execute(a exec.Actor, t exec.Task, done func(exec.Outcome)) {
	b.inner.Execute(a, t, done)
}
func (b bareExec) EstimateDuration(a exec.Actor, t exec.Task) sim.Time {
	if de, ok := b.inner.(exec.DurationEstimator); ok {
		return de.EstimateDuration(a, t)
	}
	return 0
}

// TestL1WithoutOperatorSourceFallsToHumans is the regression for the Act
// stage's Level-1 wedge: with a human backend that cannot lend operators,
// a robot-eligible ticket used to claim a unit, find no operator source,
// and return with no retry armed — parked forever. The fix rules the robot
// lane out up front, so the ticket flows to direct human dispatch.
func TestL1WithoutOperatorSourceFallsToHumans(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L1, techs: 1, robots: true,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
		},
		mutRobots:  func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
		wrapHumans: func(inner exec.Executor) exec.Executor { return bareExec{inner} },
	})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	h.eng.RunUntil(3 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatalf("resolved = %d: L1 without an operator source wedged the ticket", sum.Resolved)
	}
	st := h.ctrl.Stats()
	if st.RobotTasks != 0 {
		t.Fatalf("robot dispatched at L1 with no operator source: %+v", st)
	}
	if st.HumanTasks == 0 {
		t.Fatalf("ticket never fell through to the human lane: %+v", st)
	}
	if h.crew.FindTech() == nil {
		t.Fatal("technician still reserved")
	}
}

// TestL1OperatorExhaustionRecovers exhausts the single L1 operator across
// three concurrent robot-eligible tickets and verifies the fleet serializes
// cleanly: no ticket wedges waiting for the operator, and both the operator
// and every drain are returned once the queue empties.
func TestL1OperatorExhaustionRecovers(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L1, techs: 1, robots: true,
		mutCfg: func(c *Config) { c.SafetyInterlock = false },
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
			fc.TouchPermanentProb = 0
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	var links []*topology.Link
	for _, l := range h.net.SwitchLinks() {
		if l.HasSeparableFiber() {
			links = append(links, l)
		}
		if len(links) == 3 {
			break
		}
	}
	if len(links) < 3 {
		t.Skipf("only %d separable links in this build", len(links))
	}
	for i, l := range links {
		l := l
		h.eng.Schedule(sim.Hour+sim.Time(i)*10*sim.Minute, "break", func() {
			h.inj.InduceFault(l, faults.Oxidation)
		})
	}
	h.eng.RunUntil(6 * sim.Day)

	sum := h.store.Summarize()
	if sum.Resolved < 3 {
		t.Fatalf("resolved = %d of %d: operator exhaustion wedged a ticket", sum.Resolved, sum.Total)
	}
	for _, l := range links {
		if h.inj.Observable(l.ID) != faults.Healthy {
			t.Fatalf("link %s not repaired", l.Name())
		}
	}
	st := h.ctrl.Stats()
	if st.RobotTasks < 3 {
		t.Fatalf("RobotTasks = %d, want the robot lane to serve all three", st.RobotTasks)
	}
	if h.crew.FindTech() == nil {
		t.Fatal("operator not returned to the pool")
	}
	if h.drainedLinks() != 0 || h.ctrl.HeldDrains() != 0 {
		t.Fatalf("leaked drains: router=%d held=%d", h.drainedLinks(), h.ctrl.HeldDrains())
	}
}

// TestParkBackstopRescuesOrphanedPark simulates a parked work item whose
// own retry event died (the failure mode the dispatch pass's park backstop
// exists for) and verifies the backstop alone un-parks it at notBefore.
func TestParkBackstopRescuesOrphanedPark(t *testing.T) {
	h := newHarness(t, harnessOpt{level: L3, techs: 0, robots: false,
		mutFaults: func(fc *faults.Config) {
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.DownManifest[faults.Oxidation] = 1
			fc.TouchTransientProb = 0
		},
		mutRobots: func(rc *robot.Config) { rc.PrimitiveFailProb = 0 },
	})
	l := h.sepLink(t)
	h.eng.Schedule(sim.Hour, "break", func() { h.inj.InduceFault(l, faults.Oxidation) })
	// No technicians and no deployed units: the ticket opens but cannot start.
	h.eng.RunUntil(6 * sim.Hour)
	sum := h.store.Summarize()
	if sum.Total != 1 || sum.Resolved != 0 {
		t.Fatalf("setup: %d tickets, %d resolved", sum.Total, sum.Resolved)
	}
	tk := h.store.All()[0]
	w := h.ctrl.act.work[tk.ID]
	if w == nil {
		t.Fatal("no work item for the open ticket")
	}

	// Park the item two hours out with no retry event of its own — an
	// orphaned park. Deploy the fleet so work could start immediately were
	// the item not parked, and trigger one dispatch pass to arm the backstop.
	parkUntil := h.eng.Now() + 2*sim.Hour
	w.notBefore = parkUntil
	h.fleet.DeployPerRow()
	h.ctrl.act.kickDispatch()
	h.eng.RunUntil(12 * sim.Hour)

	sum = h.store.Summarize()
	if sum.Resolved != 1 {
		t.Fatal("orphaned park starved the ticket: backstop never dispatched it")
	}
	if tk.ResolvedAt < parkUntil {
		t.Fatalf("resolved at %v, before the park elapsed at %v", tk.ResolvedAt, parkUntil)
	}
	if tk.ResolvedAt > parkUntil+sim.Hour {
		t.Fatalf("resolved at %v, long after the park elapsed at %v", tk.ResolvedAt, parkUntil)
	}
}
