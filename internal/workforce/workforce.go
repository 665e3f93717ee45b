// Package workforce models today's baseline: human technicians working
// repair tickets (§1). Technicians can perform every action on the
// escalation ladder — including the cable and switch work robots cannot do —
// but they work shifts, take hours to dispatch, handle hardware roughly
// (full touch-cascade risk, §1), and occasionally service the wrong end.
package workforce

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Task is one physical repair assignment for a technician.
type Task struct {
	Link   *topology.Link
	End    faults.End
	Action faults.Action
}

// Port returns the port the task works at.
func (t Task) Port() *topology.Port { return t.End.Port(t.Link) }

// Outcome reports what a technician accomplished.
type Outcome struct {
	Tech      *Technician
	Task      Task
	Started   sim.Time
	Finished  sim.Time
	Completed bool
	Result    faults.RepairResult
	WrongEnd  bool // the technician serviced the opposite end by mistake
	Stockout  bool
	Effects   []faults.CascadeEffect
}

// Duration is the wall-clock the task took.
func (o Outcome) Duration() sim.Time { return o.Finished - o.Started }

// Technician is one human worker.
type Technician struct {
	Name string
	Loc  topology.Location

	busy bool

	TasksDone sim.Time // total busy time
	Count     int
}

// Available reports whether the technician can take a task now (shift
// status is the crew's concern).
func (t *Technician) Available() bool { return !t.busy }

// String returns the technician's name and state.
func (t *Technician) String() string {
	if t.busy {
		return t.Name + "(busy)"
	}
	return t.Name + "(idle)"
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

// Crew is the technician pool for one hall.
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

	Outcomes  int
	WrongEnds int
}

// NewCrew creates a crew with n technicians based at the hall entrance.
func NewCrew(eng *sim.Engine, net *topology.Network, inj *faults.Injector, pool *inventory.Pool, cfg Config, n int) *Crew {
	c := &Crew{eng: eng, net: net, inj: inj, pool: pool, cfg: cfg,
		activeRows: make(map[int]int)}
	for i := 0; i < n; i++ {
		c.techs = append(c.techs, &Technician{Name: fmt.Sprintf("tech-%d", i)})
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

// OnShift reports whether the given instant falls in shift hours.
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

// actionDuration samples hands-on time for an action.
func (c *Crew) actionDuration(a faults.Action) sim.Time {
	var d sim.Dist
	switch a {
	case faults.Reseat:
		d = c.cfg.Reseat
	case faults.Clean:
		d = c.cfg.Clean
	case faults.ReplaceXcvr:
		d = c.cfg.ReplaceXcvr
	case faults.ReplaceCable:
		d = c.cfg.ReplaceCable
	default:
		d = c.cfg.ReplaceSwitch
	}
	return sim.SampleDuration(d, c.rng())
}

// EstimateExecDuration bounds the nominal end-to-end latency of one Execute
// call, for watchdog arming: mean dispatch overhead plus the mean on-call
// surcharge (the estimate must cover off-shift dispatches too), a walk
// margin across the hall, and the action's mean hands-on time. Unlike
// DispatchDelay it never samples — estimates feed sim-time deadlines, and a
// noisy estimate would perturb runs that never time out.
func (c *Crew) EstimateExecDuration(a faults.Action) sim.Time {
	d := sim.MeanDuration(c.cfg.DispatchOverhead)*3600 + sim.MeanDuration(c.cfg.OnCallDelay)*3600
	d += 30 * sim.Minute
	d += sim.MeanDuration(actionDist(c.cfg, a))
	return d
}

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

// Execute dispatches a technician on a task asynchronously; done receives
// the outcome. It panics if the technician is busy.
func (c *Crew) Execute(tech *Technician, task Task, done func(Outcome)) {
	if !tech.Available() {
		panic(fmt.Sprintf("workforce: %s busy", tech))
	}
	tech.busy = true
	out := Outcome{Tech: tech, Task: task, Started: c.eng.Now()}
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

// TechniciansInRow reports how many technicians are hands-on in a row right
// now. Robots consult it before moving: humans and robots do not share a
// row (§3.4, "safety is a major concern when humans and robots co-exist").
func (c *Crew) TechniciansInRow(row int) int { return c.activeRows[row] }

// handsOn performs the physical action.
func (c *Crew) handsOn(tech *Technician, task Task, out Outcome, done func(Outcome)) {
	rng := c.rng()
	end := task.End
	if rng.Bernoulli(c.cfg.WrongEndProb) {
		end = end.Opposite()
		out.WrongEnd = true
		c.WrongEnds++
	}
	// Reaching in disturbs neighbours at full (rough) intensity.
	out.Effects = append(out.Effects, c.inj.Touch(task.Port(), false)...)
	c.inj.BeginRepair(task.Link)
	row := task.Port().Device.Loc.Row
	c.activeRows[row]++
	work := c.actionDuration(task.Action)
	c.eng.After(work, "tech-work", func() {
		c.activeRows[row]--
		if task.Action == faults.ReplaceCable {
			// Pulling a new cable through the trays disturbs tray-mates.
			out.Effects = append(out.Effects, c.inj.TouchTray(task.Link, false)...)
		}
		res := c.inj.FinishRepair(task.Link, task.Action, end)
		out.Result = res
		out.Completed = true
		// Withdrawal touch.
		out.Effects = append(out.Effects, c.inj.Touch(task.Port(), false)...)
		c.finish(tech, out, done)
	})
}

func (c *Crew) finish(tech *Technician, out Outcome, done func(Outcome)) {
	out.Finished = c.eng.Now()
	tech.busy = false
	tech.Count++
	tech.TasksDone += out.Duration()
	c.Outcomes++
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
		panic(fmt.Sprintf("workforce: reserve busy technician %s", t.Name))
	}
	t.busy = true
}

// Release returns a Reserved technician to the pool.
func (t *Technician) Release() { t.busy = false }
