// Package scenario assembles complete simulation worlds (topology, faults,
// telemetry, diagnosis, tickets, routing, robots, workforce, controller,
// ledgers) and implements the experiment suite indexed in DESIGN.md: every
// table and figure of EXPERIMENTS.md is regenerated by a function in this
// package, and bench_test.go at the repository root exposes each as a
// benchmark target.
package scenario

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/metrics"
	"repro/internal/robot"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticket"
	"repro/internal/topology"
	"repro/internal/vision"
	"repro/internal/workforce"
)

// Options configure a world build.
type Options struct {
	Seed uint64
	// Eng, when non-nil, builds the world on an existing engine instead of
	// creating one from Seed — the hook region-sharded fleets use to place
	// each region's world on its shard's engine (the engine's own seed, a
	// sim.ShardSeed derivation, then governs all RNG streams and Seed is
	// ignored).
	Eng *sim.Engine
	// BuildNet constructs the topology; nil uses the standard hall (a
	// 16-leaf, 4-spine pod with 4 hosts per leaf).
	BuildNet func() (*topology.Network, error)

	Level core.Level
	Techs int
	// Robots deploys one row-scope unit per switch row when true.
	Robots bool
	// FleetDiversity is the transceiver-model diversity perception must
	// handle; 0 uses the full catalog size.
	FleetDiversity int

	// FaultScale multiplies all annual fault rates; 0 means 1. Experiments
	// use accelerated aging (×20) to gather statistics in one simulated
	// year; comparisons are relative, so acceleration cancels out.
	FaultScale float64

	// Chaos injects actuator faults into the robotic lane (stalls, lost and
	// slow outcome reports, spurious give-ups). The zero value is inactive:
	// the robot executor is then wired completely unwrapped, so chaos-free
	// worlds are byte-identical to builds predating the chaos layer.
	Chaos faults.ExecChaos

	// NoController builds the physical world without a self-maintenance
	// controller — for micro-benchmarks that drive the fleet directly and
	// must not race a dispatcher for units.
	NoController bool

	// Policy overrides the controller's planning policy; nil uses the
	// built-in escalation ladder.
	Policy core.Policy

	MutateFaults    func(*faults.Config)
	MutateCore      func(*core.Config)
	MutateTicket    func(*ticket.Config)
	MutateRobot     func(*robot.Config)
	MutateWorkforce func(*workforce.Config)
	MutateTelemetry func(*telemetry.Config)
}

// World is a fully wired simulation.
type World struct {
	Eng    *sim.Engine
	Net    *topology.Network
	Bus    *bus.Bus
	Inj    *faults.Injector
	Mon    *telemetry.Monitor
	Diag   *diagnosis.Engine
	Store  *ticket.Store
	Router *routing.Router
	Pool   *inventory.Pool
	Fleet  *robot.Fleet
	Crew   *workforce.Crew
	Ctrl   *core.Controller
	Ledger *metrics.HealthLedger

	// chaos is the robot-lane chaos wrapper when Options.Chaos is active.
	chaos *exec.ChaosExecutor

	ws routing.Workspace // reused by TrafficAvailability's hot loop
}

// ChaosStats returns the actuator-chaos injection counters, zero when the
// world was built without chaos.
func (w *World) ChaosStats() exec.ChaosStats {
	if w.chaos == nil {
		return exec.ChaosStats{}
	}
	return w.chaos.Stats()
}

// StandardHall returns the default experiment fabric: 16 leaves, 4 spines,
// 4 hosts per leaf, 400G fabric.
func StandardHall() (*topology.Network, error) {
	return topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 16, Spines: 4, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
}

// SmallHall returns a reduced fabric for quick runs and benchmarks.
func SmallHall() (*topology.Network, error) {
	return topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 8, Spines: 2, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
}

// Build wires a world.
func Build(o Options) (*World, error) {
	if o.BuildNet == nil {
		o.BuildNet = StandardHall
	}
	net, err := o.BuildNet()
	if err != nil {
		return nil, fmt.Errorf("scenario: build topology: %w", err)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	eng := o.Eng
	if eng == nil {
		eng = sim.NewEngine(o.Seed)
	}

	fcfg := faults.DefaultConfig()
	scale := o.FaultScale
	if scale == 0 {
		scale = 1
	}
	for c := range fcfg.AnnualRate {
		fcfg.AnnualRate[c] *= scale
	}
	if o.MutateFaults != nil {
		o.MutateFaults(&fcfg)
	}
	inj := faults.NewInjector(eng, net, fcfg)

	tcfg := telemetry.DefaultConfig()
	if o.MutateTelemetry != nil {
		o.MutateTelemetry(&tcfg)
	}
	mon := telemetry.NewMonitor(eng, net, tcfg)
	inj.Subscribe(mon)

	// The event bus is the pipeline spine: telemetry publishes alerts onto
	// it (Sense), and the controller's stages subscribe.
	b := bus.New(eng)
	mon.PublishTo(b)

	ledger := metrics.NewHealthLedger(eng, net)
	inj.Subscribe(ledger)

	diag := diagnosis.New(eng, mon, inj)
	tkcfg := ticket.DefaultConfig()
	if o.MutateTicket != nil {
		o.MutateTicket(&tkcfg)
	}
	store := ticket.NewStore(eng, tkcfg)
	router := routing.NewRouter(net, func(id topology.LinkID) bool {
		return inj.Observable(id) != faults.Down
	})
	// Route around failures as they happen.
	inj.Subscribe(routerInvalidator{router})

	pool := inventory.NewPool(eng, inventory.DefaultStock(net), 2*sim.Day)

	div := o.FleetDiversity
	if div <= 0 {
		div = len(topology.ModelCatalog)
	}
	vis := vision.New(eng, vision.DefaultConfig(), div)
	rcfg := robot.DefaultConfig()
	if o.MutateRobot != nil {
		o.MutateRobot(&rcfg)
	}
	fleet := robot.NewFleet(eng, net, inj, vis, pool, rcfg)
	if o.Robots {
		fleet.DeployPerRow()
	}

	wcfg := workforce.DefaultConfig()
	if o.MutateWorkforce != nil {
		o.MutateWorkforce(&wcfg)
	}
	crew := workforce.NewCrew(eng, net, inj, pool, wcfg, o.Techs)

	// The chaos layer wraps only the robot lane: the paper's actuator-fault
	// story is about the automated plane failing mid-rung, with humans as
	// the fallback the dispatcher degrades to.
	var robots exec.Executor = robot.NewExecutor(fleet)
	var chaosExec *exec.ChaosExecutor
	if wrapped := exec.WithChaos(robots, eng, o.Chaos); wrapped != robots {
		chaosExec = wrapped.(*exec.ChaosExecutor)
		robots = wrapped
	}

	var ctrl *core.Controller
	if !o.NoController {
		ccfg := core.DefaultConfig(o.Level)
		if o.MutateCore != nil {
			o.MutateCore(&ccfg)
		}
		ctrl = core.New(core.Deps{
			Eng: eng, Net: net, Inj: inj, Diag: diag, Store: store,
			Router: router, Bus: b,
			Robots: robots,
			Humans: workforce.NewExecutor(crew),
			Features: func(id topology.LinkID) []float64 {
				return mon.Snapshot(id).Vector()
			},
			Policy: o.Policy,
		}, ccfg)
	}

	return &World{
		Eng: eng, Net: net, Bus: b, Inj: inj, Mon: mon, Diag: diag, Store: store,
		Router: router, Pool: pool, Fleet: fleet, Crew: crew, Ctrl: ctrl,
		Ledger: ledger, chaos: chaosExec,
	}, nil
}

// routerInvalidator evicts the routing cache entries a health transition
// can affect. Targeted invalidation keeps flap-heavy scenarios cheap: only
// destinations whose shortest paths crossed the changed link recompute.
type routerInvalidator struct{ r *routing.Router }

func (ri routerInvalidator) LinkStateChanged(l *topology.Link, _, _ faults.Health, _ sim.Time) {
	ri.r.InvalidateLink(l.ID)
}
func (ri routerInvalidator) LinkFlapped(*topology.Link, sim.Time, float64, sim.Time) {}

// Run advances the world to the given instant.
func (w *World) Run(until sim.Time) { w.Eng.RunUntil(until) }

// ReactiveServiceWindows returns the service-window distribution (hours) of
// resolved reactive tickets.
func (w *World) ReactiveServiceWindows() *metrics.Histogram {
	var h metrics.Histogram
	for _, t := range w.Store.All() {
		if t.Kind == ticket.Reactive && t.Status == ticket.Resolved {
			h.Add(t.ServiceWindow().Duration().Hours())
		}
	}
	return &h
}

// TrafficAvailability evaluates the given matrix now and returns the
// satisfied fraction. It reuses the world's evaluation workspace, so
// periodic sampling loops do not allocate.
func (w *World) TrafficAvailability(tm routing.TrafficMatrix) float64 {
	return w.Router.EvaluateInto(&w.ws, tm).Availability()
}

// DefaultSeeds is the standard replication set.
var DefaultSeeds = []uint64{11, 23, 47}
