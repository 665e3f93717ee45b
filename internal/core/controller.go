// Package core is the paper's primary contribution: the self-maintenance
// controller — the SDN-style control plane that owns hardware repair (§2).
// It consumes telemetry alerts, files and escalates tickets, diagnoses
// links, schedules robots (and the human workforce where robots cannot go),
// pre-drains the cables a planned manipulation will contact, runs proactive
// maintenance campaigns during low-utilization windows, and predicts
// failures from telemetry features.
//
// Since the event-bus refactor the control plane is a pipeline of stages
// communicating over internal/bus, mirroring the measurement → inference →
// action loop of self-running networks:
//
//	Sense  — telemetry publishes alerts on sense.alert (wired externally
//	         via telemetry.Monitor.PublishTo)
//	Triage — opens, dedups and cancels tickets (triage.go), consuming
//	         sense.alert and plan.request, producing triage.ticket
//	Plan   — the Policy interface picks ladder actions and impact sets
//	         (policy.go); the Planner runs proactive campaigns and the
//	         failure predictor (plan.go, predict.go), producing
//	         plan.request
//	Act    — dispatches physical work through exec.Executor backends,
//	         robots and technicians through one path that differs only by
//	         lane (dispatch.go, outcome.go, watchdog.go), consuming
//	         triage.ticket and producing act.dispatch / act.outcome
//
// Controller is the thin supervisor that wires the stages onto the bus; the
// journal (journal.go) records every decision published on
// journal.decision. The stages never call telemetry, robot or workforce
// concrete types: alerts arrive as bus events, physical work goes through
// exec.Executor.
//
// The controller's behaviour is governed by an automation Level (§2.1),
// mirroring the SAE-derived taxonomy: at L0 everything is human; L1 robots
// assist but a technician must operate them; L2 robots act under human
// supervision (shift hours only); L3 robots are autonomous end-to-end with
// humans handling only escalations; L4 adds fully autonomous proactive and
// predictive maintenance.
package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/diagnosis"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Level is the automation level (§2.1).
type Level int

// Automation levels.
const (
	L0 Level = iota // no automation: technicians only
	L1              // operator assistance: robots need an operating technician
	L2              // partial automation: robots work under shift-hours supervision
	L3              // high automation: autonomous robots, humans for escalations
	L4              // full automation: L3 + autonomous proactive & predictive work
)

// String returns "L0".."L4".
func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// Config governs controller behaviour.
type Config struct {
	Level Level

	// ImpactAware enables pre-draining the target link and every cable the
	// robot's plan reports it will contact (§2, §4) before physical work.
	ImpactAware bool
	// DrainSettle is how long to wait after draining before touching
	// hardware, letting flows move away.
	DrainSettle sim.Time

	// Proactive enables reseat campaigns: when ProactiveTrigger links on
	// one switch have been fixed by reseating within ProactiveWindow, all
	// other pluggable links on that switch get proactive reseats (§4).
	Proactive        bool
	ProactiveTrigger int
	ProactiveWindow  sim.Time

	// Predictive enables the telemetry-trained failure predictor (§4).
	Predictive bool
	// PredictHorizon is the label horizon: a link "fails soon" if it leaves
	// healthy within this window of a snapshot.
	PredictHorizon sim.Time
	// PredictTrainAfter is how much history to collect before training.
	PredictTrainAfter sim.Time
	// PredictThreshold is the score above which a predictive ticket opens.
	PredictThreshold float64

	// UtilGate defers proactive/predictive (P2) work while fabric
	// utilization is above this fraction. Utilization comes from UtilFn.
	UtilGate float64
	// UtilFn reports current fabric peak utilization in [0,1]; nil means
	// always idle (proactive work never deferred).
	UtilFn func() float64

	// SafetyInterlock defers robotic work in any row where a technician is
	// currently hands-on (§3.4: humans and robots do not share a row).
	SafetyInterlock bool
	// RetryDelay spaces retries after transient scheduler failures.
	RetryDelay sim.Time
	// StockoutRetry spaces retries while waiting for parts to restock.
	StockoutRetry sim.Time
	// MaxAttempts caps physical attempts per ticket before the ticket is
	// parked as chronic and retried on a slow cadence.
	MaxAttempts int

	// WatchdogFactor multiplies an executor's nominal duration estimate
	// (exec.DurationEstimator) to form each attempt's watchdog deadline. The
	// factor must leave headroom over every natural sampling tail: a watchdog
	// that fires on healthy actuators would perturb chaos-free runs. <= 0
	// disables watchdogs entirely.
	WatchdogFactor float64
	// WatchdogFloor is the minimum watchdog deadline, covering executors
	// without a duration estimate.
	WatchdogFloor sim.Time
	// RetryBackoff is the base delay before retrying a watchdog-failed
	// attempt; it doubles per recorded attempt (attempt-indexed, so replays
	// are deterministic) up to RetryBackoffCap.
	RetryBackoff    sim.Time
	RetryBackoffCap sim.Time
	// RobotFailLimit force-escalates a ticket to the human lane after this
	// many robot-lane watchdog failures; <= 0 never escalates.
	RobotFailLimit int
}

// DefaultConfig returns the configuration for a given automation level,
// with the cross-layer features (impact-awareness, proactive, predictive)
// enabled at the levels the paper envisions them.
func DefaultConfig(level Level) Config {
	return Config{
		Level:             level,
		ImpactAware:       level >= L2,
		DrainSettle:       5 * sim.Second,
		Proactive:         level >= L4,
		ProactiveTrigger:  3,
		ProactiveWindow:   30 * sim.Day,
		Predictive:        level >= L4,
		PredictHorizon:    7 * sim.Day,
		PredictTrainAfter: 60 * sim.Day,
		PredictThreshold:  0.75,
		UtilGate:          0.6,
		SafetyInterlock:   true,
		RetryDelay:        30 * sim.Minute,
		StockoutRetry:     4 * sim.Hour,
		MaxAttempts:       10,
		WatchdogFactor:    8,
		WatchdogFloor:     2 * sim.Hour,
		RetryBackoff:      15 * sim.Minute,
		RetryBackoffCap:   6 * sim.Hour,
		RobotFailLimit:    3,
	}
}

// Stats counts controller activity.
type Stats struct {
	AlertsSeen         int
	TicketsOpened      int
	TicketsResolved    int
	TicketsCancelled   int
	RobotTasks         int
	HumanTasks         int
	EscalationsToHuman int
	PreDrains          int
	CascadesDuringOps  int
	ProactiveCampaigns int
	ProactiveTasks     int
	PredictiveTasks    int
	ChronicTickets     int
	SafetyHolds        int
	WatchdogFires      int
	LateOutcomes       int
	DegradedTickets    int
}

// Deps are the services a controller is wired with. Alerts are not listed:
// they arrive over Bus (topic sense.alert), published by whichever
// monitoring plane the caller connects.
type Deps struct {
	Eng    *sim.Engine
	Net    *topology.Network
	Inj    *faults.Injector
	Diag   *diagnosis.Engine
	Store  *ticket.Store
	Router *routing.Router
	Bus    *bus.Bus

	// Robots and Humans are the Act stage's execution backends. Humans may
	// additionally implement exec.Shifted, exec.RowOccupancy and
	// exec.OperatorSource; Act discovers those capabilities by assertion.
	Robots exec.Executor
	Humans exec.Executor

	// Features returns the prediction feature vector for a link; nil
	// disables feature snapshots (the predictor then never trains).
	Features func(topology.LinkID) []float64

	// Policy decides repair actions and impact sets; nil uses the built-in
	// escalation-ladder policy backed by Diag and Inj.
	Policy Policy
}

// Controller is the self-maintenance control plane for one network: a thin
// supervisor that wires the Triage, Plan and Act stages onto the bus and
// owns the shared stats and decision journal.
type Controller struct {
	d   Deps
	cfg Config

	triage  *Triage
	planner *Planner
	act     *Act

	journal journal
	stats   Stats
}

// New wires a controller into a world. Stage subscriptions are ordered so
// that, within one published event, observers fire exactly as the old
// monolithic controller did: the journal first, then Plan's sample
// collector, then Triage, then Act.
func New(d Deps, cfg Config) *Controller {
	if d.Policy == nil {
		d.Policy = NewLadderPolicy(d.Diag, d.Inj)
	}
	c := &Controller{d: d, cfg: cfg}

	// Journal: every decision published on journal.decision is retained.
	d.Bus.Subscribe(bus.TopicDecision, func(ev bus.Event) {
		if e, ok := ev.Payload.(JournalEntry); ok {
			c.journal.add(e)
		}
	})

	// Sense accounting.
	d.Bus.Subscribe(bus.TopicAlert, func(bus.Event) { c.stats.AlertsSeen++ })

	c.planner = newPlanner(c)
	if cfg.Predictive {
		// The sample collector labels feature snapshots from alerts; it must
		// observe each alert before Triage reacts to it, as before.
		d.Bus.Subscribe(bus.TopicAlert, c.planner.onAlert)
	}
	c.act = newAct(c)
	c.triage = newTriage(c)

	d.Bus.Subscribe(bus.TopicAlert, c.triage.onAlert)
	d.Bus.Subscribe(bus.TopicRequest, c.triage.onRequest)
	d.Bus.Subscribe(bus.TopicTicket, c.act.onTicketEvent)
	d.Bus.Subscribe(bus.TopicTicket, c.planner.onTicketEvent)

	if cfg.Predictive {
		c.planner.startPredictiveLoop()
	}
	return c
}

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// HeldDrains returns how many links are currently drained on behalf of
// in-flight work items. Whenever the controller is the only drain
// authority, the router's drained links must number exactly this; the
// scenario chaos tests check that conservation through it, and no
// production code reads it.
//
//lint:allow deadexport TestChaosInvariants and TestActuatorChaosNeverWedges check drain conservation against it
func (c *Controller) HeldDrains() int { return c.act.heldDrains() }

// CollectorDataset exposes matured labelled samples for experiment scoring.
func (c *Controller) CollectorDataset() (X [][]float64, y []bool) {
	if c.planner.collector == nil {
		return nil, nil
	}
	return c.planner.collector.dataset(c.d.Eng.Now())
}
