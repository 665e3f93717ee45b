// Package robot simulates the modular maintenance robot fleet of the paper:
// transceiver-manipulation arms (Fig. 1), fiber/transceiver cleaning units
// (Fig. 2) and the mobility that carries them, executing repair tasks as
// timed sequences of primitives with stochastic durations and failures.
//
// The fidelity contract with the paper:
//
//   - Robots are gentle: they part cables deliberately and press only on the
//     transceiver body, so their touch-cascade factor is a small fraction of
//     a human's (§3.3.1).
//   - The cleaning workflow is detach → inspect → clean (wet/dry) → verify →
//     reassemble, and when verification keeps failing the robot requests
//     human support (§3.3.2).
//   - Robots can reseat, clean and swap transceivers from carried spares,
//     but do not lay new fiber or replace switch hardware (§3.3); those
//     actions escalate to the human workforce at any automation level.
//   - Units have a mobility scope: rack, row, or hall (§3.4).
package robot

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/vision"
)

// Scope is how far a unit can move from its home position (§3.4).
type Scope uint8

// Mobility scopes.
const (
	RackScope Scope = iota
	RowScope
	HallScope
)

var scopeNames = [...]string{RackScope: "rack", RowScope: "row", HallScope: "hall"}

// String returns the scope name.
func (s Scope) String() string {
	if int(s) < len(scopeNames) {
		return scopeNames[s]
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// Unit is one robotic unit: a manipulator arm with an integrated cleaning
// station, deployable at a scope.
type Unit struct {
	name  string
	Scope Scope
	Home  topology.Location
	Loc   topology.Location

	SpeedMps float64

	busy     bool
	broken   bool
	charging bool
	tasks    int // since last charge

	BusyTime sim.Time
}

// Name returns the unit's name.
func (u *Unit) Name() string { return u.name }

// Available reports whether the unit can accept a task now.
func (u *Unit) Available() bool { return !u.busy && !u.broken && !u.charging }

// String returns the unit name and state.
func (u *Unit) String() string {
	state := "idle"
	switch {
	case u.broken:
		state = "broken"
	case u.charging:
		state = "charging"
	case u.busy:
		state = "busy"
	}
	return fmt.Sprintf("%s(%s,%s)", u.name, u.Scope, state)
}

// CanReach reports whether the unit's scope covers a location.
func (u *Unit) CanReach(loc topology.Location) bool {
	switch u.Scope {
	case RackScope:
		return u.Home.Row == loc.Row && u.Home.Rack == loc.Rack
	case RowScope:
		return u.Home.Row == loc.Row
	default:
		return true
	}
}

// Config calibrates primitive durations and reliability. Durations are in
// seconds.
type Config struct {
	NavSetup    sim.Dist // positioning at the rack after arriving
	PartCables  sim.Dist // parting cables to reach the port
	Identify    sim.Dist // perception pass
	Unplug      sim.Dist
	Plug        sim.Dist
	ReseatDwell sim.Dist // power-drain dwell between unplug and replug
	CleanPass   sim.Dist // one wet or dry cleaning pass, per end-face
	SwapSpare   sim.Dist // fetch carried spare and exchange modules

	MaxIdentifyRetries int
	MaxCleanRetries    int

	// PrimitiveFailProb is the per-primitive mechanical failure
	// probability; a primitive is retried once and then the task aborts.
	PrimitiveFailProb float64
	// BreakProb is the probability that an aborted task leaves the unit
	// broken (out of service for RepairTime).
	BreakProb  float64
	RepairTime sim.Time

	// BatteryTasks is how many tasks a unit runs before recharging for
	// ChargeTime.
	BatteryTasks int
	ChargeTime   sim.Time
}

// DefaultConfig returns calibrated defaults. The end-to-end reseat runs a
// couple of minutes and a full manipulate+clean cycle "a few minutes"
// (§3.3.2).
func DefaultConfig() Config {
	return Config{
		NavSetup:    sim.Triangular{Lo: 20, Mode: 35, Hi: 60},
		PartCables:  sim.Triangular{Lo: 10, Mode: 20, Hi: 45},
		Identify:    sim.Triangular{Lo: 3, Mode: 5, Hi: 10},
		Unplug:      sim.Triangular{Lo: 8, Mode: 12, Hi: 20},
		Plug:        sim.Triangular{Lo: 8, Mode: 12, Hi: 25},
		ReseatDwell: sim.Const(10),
		CleanPass:   sim.Triangular{Lo: 15, Mode: 25, Hi: 40},
		SwapSpare:   sim.Triangular{Lo: 30, Mode: 45, Hi: 90},

		MaxIdentifyRetries: 2,
		MaxCleanRetries:    2,
		PrimitiveFailProb:  0.01,
		BreakProb:          0.1,
		RepairTime:         8 * sim.Hour,
		BatteryTasks:       30,
		ChargeTime:         45 * sim.Minute,
	}
}

// CanPerform reports whether the robot fleet can execute an action at all.
func CanPerform(a faults.Action) bool {
	switch a {
	case faults.Reseat, faults.Clean, faults.ReplaceXcvr:
		return true
	default:
		return false // fiber laying and switch work stay human (§3.3)
	}
}

// Fleet owns the robotic units and executes tasks against the physical
// world (fault injector), perception (vision) and spares (inventory). It is
// the robot lane's exec.Executor, and its units are the exec.Actors.
type Fleet struct {
	eng  *sim.Engine
	net  *topology.Network
	inj  *faults.Injector
	vis  *vision.System
	pool *inventory.Pool
	cfg  Config

	units []*Unit
}

// Act finds the duration estimate by type assertion; this keeps the
// compiler checking it.
var _ interface {
	exec.Executor
	exec.DurationEstimator
} = (*Fleet)(nil)

// NewFleet creates an empty fleet.
func NewFleet(eng *sim.Engine, net *topology.Network, inj *faults.Injector, vis *vision.System, pool *inventory.Pool, cfg Config) *Fleet {
	return &Fleet{eng: eng, net: net, inj: inj, vis: vis, pool: pool, cfg: cfg}
}

// AddUnit deploys a unit at home with the given scope.
func (f *Fleet) AddUnit(name string, scope Scope, home topology.Location) *Unit {
	u := &Unit{name: name, Scope: scope, Home: home, Loc: home, SpeedMps: 0.5}
	f.units = append(f.units, u)
	return u
}

// DeployPerRow adds one row-scope unit per row that contains equipment.
func (f *Fleet) DeployPerRow() []*Unit {
	rows := map[int]bool{}
	for _, d := range f.net.Devices {
		rows[d.Loc.Row] = true
	}
	var out []*Unit
	for row := 0; ; row++ {
		if !rows[row] {
			if len(out) == len(rows) {
				break
			}
			continue
		}
		out = append(out, f.AddUnit(fmt.Sprintf("robot-r%d", row), RowScope,
			topology.Location{Row: row, Rack: 0, RU: 0}))
	}
	return out
}

// Units returns the fleet's units.
func (f *Fleet) Units() []*Unit { return f.units }

// AvailableUnits counts units that are idle and serviceable right now.
func (f *Fleet) AvailableUnits() int {
	n := 0
	for _, u := range f.units {
		if u.Available() {
			n++
		}
	}
	return n
}

// RemoveUnit withdraws the unit from service, preserving deployment order
// of the rest. Only an idle, serviceable unit can be withdrawn — removing a
// unit mid-task would strand its work item — so it returns false for busy,
// broken, charging, or unknown units. Cross-region robot transfers use this
// on the lending side.
func (f *Fleet) RemoveUnit(u *Unit) bool {
	if u == nil || !u.Available() {
		return false
	}
	for i, v := range f.units {
		if v == u {
			f.units = append(f.units[:i], f.units[i+1:]...)
			return true
		}
	}
	return false
}

// CanPerform implements exec.Executor with the package-level CanPerform.
func (f *Fleet) CanPerform(a faults.Action) bool { return CanPerform(a) }

// Claim implements exec.Executor: the first available unit, in deployment
// order, that can reach the location, or nil. Claiming does not reserve.
func (f *Fleet) Claim(loc topology.Location) exec.Actor {
	for _, u := range f.units {
		if u.Available() && u.CanReach(loc) {
			return u
		}
	}
	return nil // untyped nil: a nil *Unit inside exec.Actor would be non-nil
}

// TravelTime returns how long the unit needs to reach a location.
func (f *Fleet) TravelTime(u *Unit, loc topology.Location) sim.Time {
	d := f.net.Layout.TravelDistanceM(u.Loc, loc)
	if u.SpeedMps <= 0 {
		return 0
	}
	return sim.Time(d / u.SpeedMps * float64(sim.Second))
}

// EstimateDuration implements exec.DurationEstimator: the task's duration
// on the claimed unit from distribution means plus travel, never sampled.
func (f *Fleet) EstimateDuration(a exec.Actor, t exec.Task) sim.Time {
	d := f.TravelTime(a.(*Unit), t.Port().Device.Loc)
	d += sim.MeanDuration(f.cfg.NavSetup) + sim.MeanDuration(f.cfg.PartCables) +
		sim.MeanDuration(f.cfg.Identify) + sim.MeanDuration(f.cfg.Unplug) +
		sim.MeanDuration(f.cfg.Plug)
	switch t.Action {
	case faults.Reseat:
		d += sim.MeanDuration(f.cfg.ReseatDwell)
	case faults.Clean:
		d += 2*sim.MeanDuration(f.cfg.CleanPass) + 40*sim.Second // inspection
	case faults.ReplaceXcvr:
		d += sim.MeanDuration(f.cfg.SwapSpare) + sim.MeanDuration(f.cfg.CleanPass)
	}
	return d
}

func (f *Fleet) rng() *sim.Stream { return f.eng.RNG("robot") }
