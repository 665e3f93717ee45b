// Package workforce models today's baseline: human technicians working
// repair tickets (§1). Technicians can perform every action on the
// escalation ladder — including the cable and switch work robots cannot do —
// but they work shifts, take hours to dispatch, handle hardware roughly
// (full touch-cascade risk, §1), and occasionally service the wrong end.
package workforce

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Technician is one human worker.
type Technician struct {
	name string
	Loc  topology.Location

	busy bool
}

// Name returns the technician's name.
func (t *Technician) Name() string { return t.name }

// Available reports whether the technician can take a task now (shift
// status is the crew's concern).
func (t *Technician) Available() bool { return !t.busy }

// String returns the technician's name and state.
func (t *Technician) String() string {
	if t.busy {
		return t.name + "(busy)"
	}
	return t.name + "(idle)"
}

// Config calibrates the human baseline. Durations are seconds unless noted.
type Config struct {
	// Shift hours (local): technicians are on site in [ShiftStartH,
	// ShiftEndH) every day.
	ShiftStartH, ShiftEndH int
	// OnCallDelay is the extra dispatch latency (hours) for emergency
	// callout outside shift hours.
	OnCallDelay sim.Dist
	// DispatchOverhead is the on-shift latency (hours) from assignment to
	// hands-on-hardware: triage, walking, gowning, tool pickup.
	DispatchOverhead sim.Dist

	WalkSpeedMps float64

	// Action durations (seconds), hands-on once at the rack.
	Reseat        sim.Dist
	Clean         sim.Dist
	ReplaceXcvr   sim.Dist
	ReplaceCable  sim.Dist
	ReplaceSwitch sim.Dist

	// WrongEndProb is the chance the technician services the opposite end
	// (mislabeled ports, mirrored racks — ordinary human error).
	WrongEndProb float64
}

// DefaultConfig returns the calibrated human baseline: minutes of hands-on
// work buried under hours of dispatch latency, which is why today's service
// windows are hours-to-days (§1).
func DefaultConfig() Config {
	return Config{
		ShiftStartH:      8,
		ShiftEndH:        18,
		OnCallDelay:      sim.Clamped{Base: sim.LogNormal{Mu: 1.1, Sigma: 0.5}, Lo: 1, Hi: 10},  // ~3h median
		DispatchOverhead: sim.Clamped{Base: sim.LogNormal{Mu: 0.2, Sigma: 0.6}, Lo: 0.4, Hi: 6}, // ~1.2h median
		WalkSpeedMps:     1.2,
		Reseat:           sim.Triangular{Lo: 240, Mode: 480, Hi: 1200},
		Clean:            sim.Triangular{Lo: 900, Mode: 1800, Hi: 3600},
		ReplaceXcvr:      sim.Triangular{Lo: 600, Mode: 1200, Hi: 2400},
		ReplaceCable:     sim.Triangular{Lo: 2 * 3600, Mode: 4 * 3600, Hi: 8 * 3600},
		ReplaceSwitch:    sim.Triangular{Lo: 2 * 3600, Mode: 5 * 3600, Hi: 10 * 3600},
		WrongEndProb:     0.05,
	}
}

// Crew is the technician pool for one hall. It is the human lane's
// exec.Executor, and its technicians are the exec.Actors. Through exec's
// optional capability interfaces it also exposes shift hours, per-row
// hands-on occupancy for the safety interlock, and Level-1 robot operators.
type Crew struct {
	eng  *sim.Engine
	net  *topology.Network
	inj  *faults.Injector
	pool *inventory.Pool
	cfg  Config

	techs []*Technician

	// activeRows counts technicians currently hands-on per row, for the
	// human-robot safety interlock (§3.4).
	activeRows map[int]int
}

// Act finds the capabilities by type assertion, so a renamed method would
// silently drop one; this keeps the compiler checking them.
var _ interface {
	exec.Executor
	exec.DurationEstimator
	exec.Shifted
	exec.RowOccupancy
	exec.OperatorSource
} = (*Crew)(nil)

// NewCrew creates a crew with n technicians based at the hall entrance.
func NewCrew(eng *sim.Engine, net *topology.Network, inj *faults.Injector, pool *inventory.Pool, cfg Config, n int) *Crew {
	c := &Crew{eng: eng, net: net, inj: inj, pool: pool, cfg: cfg,
		activeRows: make(map[int]int)}
	for i := 0; i < n; i++ {
		c.techs = append(c.techs, &Technician{name: fmt.Sprintf("tech-%d", i)})
	}
	return c
}

// FindTech returns an idle technician, or nil. Shift status does not gate
// availability — off-shift dispatch just costs the on-call delay.
func (c *Crew) FindTech() *Technician {
	for _, t := range c.techs {
		if t.Available() {
			return t
		}
	}
	return nil
}

// CanPerform implements exec.Executor: technicians perform every action on
// the ladder, including the cable and switch work robots cannot do.
func (c *Crew) CanPerform(faults.Action) bool { return true }

// Claim implements exec.Executor: an idle technician, or nil. Technicians
// dispatch anywhere in the hall, so the location is not consulted.
func (c *Crew) Claim(topology.Location) exec.Actor {
	if t := c.FindTech(); t != nil {
		return t
	}
	return nil // untyped nil: a nil *Technician inside exec.Actor would be non-nil
}

// ClaimOperator implements exec.OperatorSource: reserve an idle technician
// to operate a Level-1 robotic unit.
func (c *Crew) ClaimOperator() (exec.Operator, bool) {
	t := c.FindTech()
	if t == nil {
		return nil, false
	}
	t.Reserve()
	return techOperator{crew: c, t: t}, true
}

// techOperator is a reserved technician operating a robot.
type techOperator struct {
	crew *Crew
	t    *Technician
}

func (o techOperator) ArrivalDelay(at sim.Time) sim.Time { return o.crew.DispatchDelay(at) }
func (o techOperator) Release()                          { o.t.Release() }

// OnShift implements exec.Shifted: whether the instant falls in shift hours.
func (c *Crew) OnShift(at sim.Time) bool {
	h := int(at.Hours()) % 24
	return h >= c.cfg.ShiftStartH && h < c.cfg.ShiftEndH
}

// DispatchDelay samples the assignment-to-hands-on latency for a dispatch
// at the given instant.
func (c *Crew) DispatchDelay(at sim.Time) sim.Time {
	rng := c.rng()
	hours := c.cfg.DispatchOverhead.Sample(rng)
	if !c.OnShift(at) {
		hours += c.cfg.OnCallDelay.Sample(rng)
	}
	return sim.Time(hours * float64(sim.Hour))
}

// EstimateDuration implements exec.DurationEstimator: the nominal
// end-to-end latency of one Execute call, whoever the technician: mean
// dispatch overhead plus the mean on-call surcharge (the estimate must
// cover off-shift dispatches too), a walk margin across the hall, and the
// action's mean hands-on time. Unlike DispatchDelay it never samples —
// estimates feed sim-time deadlines, and a noisy estimate would perturb
// runs that never time out.
func (c *Crew) EstimateDuration(_ exec.Actor, t exec.Task) sim.Time {
	d := sim.MeanDuration(c.cfg.DispatchOverhead)*3600 + sim.MeanDuration(c.cfg.OnCallDelay)*3600
	d += 30 * sim.Minute
	d += sim.MeanDuration(actionDist(c.cfg, t.Action))
	return d
}

// actionDist is the hands-on time distribution, in seconds, of an action.
func actionDist(cfg Config, a faults.Action) sim.Dist {
	switch a {
	case faults.Reseat:
		return cfg.Reseat
	case faults.Clean:
		return cfg.Clean
	case faults.ReplaceXcvr:
		return cfg.ReplaceXcvr
	case faults.ReplaceCable:
		return cfg.ReplaceCable
	default:
		return cfg.ReplaceSwitch
	}
}

// Execute implements exec.Executor: it dispatches the claimed technician on
// a task asynchronously, and done receives the outcome. It panics if the
// technician is busy.
func (c *Crew) Execute(a exec.Actor, task exec.Task, done func(exec.Outcome)) {
	tech := a.(*Technician)
	if !tech.Available() {
		panic(fmt.Sprintf("workforce: %s busy", tech))
	}
	tech.busy = true
	out := exec.Outcome{Actor: tech.name, Task: task, Started: c.eng.Now()}
	// Parts are drawn from the depot before dispatch; a stockout is known
	// immediately, not after hours of travel.
	if c.pool != nil {
		if part, needs := partFor(task.Action); needs && !c.pool.Take(part) {
			out.Stockout = true
			c.finish(tech, out, done)
			return
		}
	}
	dispatch := c.DispatchDelay(c.eng.Now())
	c.eng.After(dispatch, "tech-dispatch", func() {
		// Walk to the rack.
		loc := task.Port().Device.Loc
		walk := sim.Time(c.net.Layout.TravelDistanceM(tech.Loc, loc) / c.cfg.WalkSpeedMps * float64(sim.Second))
		c.eng.After(walk, "tech-walk", func() {
			tech.Loc = loc
			c.handsOn(tech, task, out, done)
		})
	})
}

// BusyInRow implements exec.RowOccupancy: how many technicians are hands-on
// in a row right now. Robots consult it before moving: humans and robots do
// not share a row (§3.4, "safety is a major concern when humans and robots
// co-exist").
func (c *Crew) BusyInRow(row int) int { return c.activeRows[row] }

// handsOn performs the physical action.
func (c *Crew) handsOn(tech *Technician, task exec.Task, out exec.Outcome, done func(exec.Outcome)) {
	rng := c.rng()
	end := task.End
	if rng.Bernoulli(c.cfg.WrongEndProb) {
		end = end.Opposite()
	}
	// Reaching in disturbs neighbours at full (rough) intensity.
	out.Touched += c.inj.Touch(task.Port(), false)
	c.inj.BeginRepair(task.Link)
	row := task.Port().Device.Loc.Row
	c.activeRows[row]++
	work := sim.SampleDuration(actionDist(c.cfg, task.Action), rng)
	c.eng.After(work, "tech-work", func() {
		c.activeRows[row]--
		if task.Action == faults.ReplaceCable {
			// Pulling a new cable through the trays disturbs tray-mates.
			out.Touched += c.inj.TouchTray(task.Link)
		}
		res := c.inj.FinishRepair(task.Link, task.Action, end)
		out.Completed = true
		out.Fixed, out.Masked, out.Note = res.Fixed, res.Masked, res.Note
		// Withdrawal touch.
		out.Touched += c.inj.Touch(task.Port(), false)
		c.finish(tech, out, done)
	})
}

func (c *Crew) finish(tech *Technician, out exec.Outcome, done func(exec.Outcome)) {
	out.Finished = c.eng.Now()
	tech.busy = false
	if done != nil {
		done(out)
	}
}

func (c *Crew) rng() *sim.Stream { return c.eng.RNG("workforce") }

// partFor maps an action to the spare part it consumes.
func partFor(a faults.Action) (inventory.PartKind, bool) {
	switch a {
	case faults.ReplaceXcvr:
		return inventory.PartXcvr, true
	case faults.ReplaceCable:
		return inventory.PartCable, true
	case faults.ReplaceSwitchPort:
		return inventory.PartLineCard, true
	}
	return 0, false
}

// Reserve marks the technician busy outside a normal task — e.g. operating
// or supervising a Level-1 robotic device (§2.1). Release with Release.
func (t *Technician) Reserve() {
	if t.busy {
		panic(fmt.Sprintf("workforce: reserve busy technician %s", t.name))
	}
	t.busy = true
}

// Release returns a Reserved technician to the pool.
func (t *Technician) Release() { t.busy = false }
