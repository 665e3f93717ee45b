// Package robotapi is the service API the paper calls for (§2): an
// interface that "masks the complexity but enables complex control" of the
// maintenance robots. Clients discover capabilities, ask for a manipulation
// plan that pre-reports which cables will be contacted (§2), execute repair
// tasks, inject faults, and read link health and the topology, without
// ever touching robot internals.
//
// Service drives the fleet through the exec.Executor contract the Act stage
// also uses; the controller dispatches to the fleet directly, not through
// Service. Handler serves a Service over HTTP and Client calls it
// (transport.go), as the robotd daemon, the maintctl CLI and
// examples/liveapi do.
package robotapi

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/robot"
	"repro/internal/sim"
	"repro/internal/topology"
)

// UnitInfo describes one robotic unit.
type UnitInfo struct {
	Name      string `json:"name"`
	Scope     string `json:"scope"`
	Row       int    `json:"row"`
	Rack      int    `json:"rack"`
	Available bool   `json:"available"`
}

// Capabilities is the fleet's capability report.
type Capabilities struct {
	Units   []UnitInfo `json:"units"`
	Actions []string   `json:"actions"` // actions robots can perform
}

// TaskSpec names a repair task in API terms.
type TaskSpec struct {
	Link   int    `json:"link"`   // LinkID
	End    string `json:"end"`    // "A" or "B"
	Action string `json:"action"` // faults.Action name
}

// Plan is the pre-motion report for a task: feasibility, the assigned
// unit, and — centrally — the cables that will be contacted, so the
// controller can drain them first.
type Plan struct {
	Feasible     bool     `json:"feasible"`
	Reason       string   `json:"reason,omitempty"`
	Unit         string   `json:"unit,omitempty"`
	CablesAtRisk []int    `json:"cables_at_risk"`       // LinkIDs near the port
	RiskNames    []string `json:"risk_names,omitempty"` // human-readable
	TrayMates    int      `json:"tray_mates"`
	EstSeconds   float64  `json:"est_seconds"`
}

// ExecuteResult reports a completed task.
type ExecuteResult struct {
	Completed  bool    `json:"completed"`
	NeedsHuman bool    `json:"needs_human"`
	Stockout   bool    `json:"stockout"`
	Fixed      bool    `json:"fixed"`
	Masked     bool    `json:"masked"`
	Note       string  `json:"note,omitempty"`
	Seconds    float64 `json:"seconds"`
	Cascades   int     `json:"cascades"`
	LinkHealth string  `json:"link_health"`
}

// HealthReport summarizes observable link health.
type HealthReport struct {
	Links    int      `json:"links"`
	Down     []string `json:"down"`
	Flapping []string `json:"flapping"`
}

// Service implements the robot API against a simulation world. Execute
// advances the world's virtual time synchronously until the task resolves,
// so one Service must not be shared with another driver of the same engine.
// All methods are safe for concurrent use (internally serialized).
type Service struct {
	mu    sync.Mutex
	eng   *sim.Engine
	net   *topology.Network
	inj   *faults.Injector
	fleet *robot.Fleet
}

// NewService binds the API to a world.
func NewService(eng *sim.Engine, net *topology.Network, inj *faults.Injector, fleet *robot.Fleet) *Service {
	return &Service{eng: eng, net: net, inj: inj, fleet: fleet}
}

// Capabilities reports the fleet.
func (s *Service) Capabilities() Capabilities {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Capabilities{Units: []UnitInfo{}, Actions: []string{}}
	for _, u := range s.fleet.Units() {
		c.Units = append(c.Units, UnitInfo{
			Name: u.Name(), Scope: u.Scope.String(),
			Row: u.Home.Row, Rack: u.Home.Rack,
			Available: u.Available(),
		})
	}
	for _, a := range faults.AllActions {
		if s.fleet.CanPerform(a) {
			c.Actions = append(c.Actions, a.String())
		}
	}
	return c
}

// Plan computes the pre-motion report for a task without moving anything.
func (s *Service) Plan(spec TaskSpec) (Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	task, err := s.parse(spec)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{CablesAtRisk: []int{}}
	if !s.fleet.CanPerform(task.Action) {
		p.Reason = fmt.Sprintf("action %v requires a technician", task.Action)
		return p, nil
	}
	a := s.fleet.Claim(task.Port().Device.Loc)
	if a == nil {
		p.Reason = "no available unit can reach the target"
		return p, nil
	}
	p.Feasible = true
	p.Unit = a.Name()
	for _, l := range s.inj.DisturbedBy(task.Port()) {
		p.CablesAtRisk = append(p.CablesAtRisk, int(l.ID))
		p.RiskNames = append(p.RiskNames, l.Name())
	}
	p.TrayMates = len(s.net.LinksSharingTray(task.Link))
	p.EstSeconds = s.fleet.EstimateDuration(a, task).Duration().Seconds()
	return p, nil
}

// Execute runs a task to completion, advancing virtual time, and reports
// the outcome.
func (s *Service) Execute(spec TaskSpec) (ExecuteResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	task, err := s.parse(spec)
	if err != nil {
		return ExecuteResult{}, err
	}
	if !s.fleet.CanPerform(task.Action) {
		return ExecuteResult{NeedsHuman: true, Note: "action requires a technician"}, nil
	}
	a := s.fleet.Claim(task.Port().Device.Loc)
	if a == nil {
		return ExecuteResult{}, fmt.Errorf("robotapi: no available unit for %s", task.Port().Name())
	}
	var out *exec.Outcome
	s.fleet.Execute(a, task, func(o exec.Outcome) { out = &o })
	// Drive the world until the task resolves.
	for out == nil && s.eng.Step() {
	}
	if out == nil {
		return ExecuteResult{}, fmt.Errorf("robotapi: task never resolved")
	}
	return ExecuteResult{
		Completed:  out.Completed,
		NeedsHuman: out.NeedsHuman,
		Stockout:   out.Stockout,
		Fixed:      out.Fixed,
		Masked:     out.Masked,
		Note:       out.Note,
		Seconds:    out.Duration().Duration().Seconds(),
		Cascades:   out.Touched,
		LinkHealth: s.inj.Observable(task.Link.ID).String(),
	}, nil
}

// Topology returns the hall's static structure, which marshals to the
// topology package's JSON wire form, so external tooling can render or
// analyze the plant. The network is fixed at NewService, so no lock.
func (s *Service) Topology() *topology.Network { return s.net }

// Health reports current observable link health.
func (s *Service) Health() HealthReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := HealthReport{Links: len(s.net.Links), Down: []string{}, Flapping: []string{}}
	for _, l := range s.net.Links {
		switch s.inj.Observable(l.ID) {
		case faults.Down:
			rep.Down = append(rep.Down, l.Name())
		case faults.Flapping:
			rep.Flapping = append(rep.Flapping, l.Name())
		}
	}
	return rep
}

// Inject forces a fault (operator/testing hook, used by maintctl demos).
func (s *Service) Inject(linkID int, cause string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if linkID < 0 || linkID >= len(s.net.Links) {
		return fmt.Errorf("robotapi: link %d out of range", linkID)
	}
	c, err := ParseCause(cause)
	if err != nil {
		return err
	}
	l := s.net.Links[linkID]
	if s.inj.State(l.ID).Cause != faults.None {
		return fmt.Errorf("robotapi: link %d already faulted", linkID)
	}
	s.inj.InduceFault(l, c)
	return nil
}

// parse validates a TaskSpec against the world.
func (s *Service) parse(spec TaskSpec) (exec.Task, error) {
	if spec.Link < 0 || spec.Link >= len(s.net.Links) {
		return exec.Task{}, fmt.Errorf("robotapi: link %d out of range", spec.Link)
	}
	end, err := ParseEnd(spec.End)
	if err != nil {
		return exec.Task{}, err
	}
	action, err := ParseAction(spec.Action)
	if err != nil {
		return exec.Task{}, err
	}
	return exec.Task{Link: s.net.Links[spec.Link], End: end, Action: action}, nil
}

// ParseEnd parses "A"/"B" (case-insensitive single letter).
func ParseEnd(s string) (faults.End, error) {
	switch s {
	case "A", "a":
		return faults.EndA, nil
	case "B", "b":
		return faults.EndB, nil
	}
	return 0, fmt.Errorf("robotapi: bad end %q (want A or B)", s)
}

// ParseAction parses an action name as produced by faults.Action.String.
func ParseAction(s string) (faults.Action, error) {
	for _, a := range faults.AllActions {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("robotapi: unknown action %q", s)
}

// ParseCause parses a cause name as produced by faults.Cause.String.
func ParseCause(s string) (faults.Cause, error) {
	for _, c := range faults.AllCauses {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("robotapi: unknown cause %q", s)
}
