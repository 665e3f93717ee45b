// Package ticket implements the repair-ticket system that mediates between
// failure detection and repair execution in today's datacenters (§1), plus
// the repeat-ticket bookkeeping that drives the paper's escalation ladder:
// if a link re-tickets within a time window of a previous repair, the next
// repair starts at the next rung (§3.2).
package ticket

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies why a ticket exists.
type Kind uint8

// Ticket kinds.
const (
	Reactive   Kind = iota // a failure was detected
	Proactive              // scheduled preventive maintenance
	Predictive             // a model predicted imminent failure
)

var kindNames = [...]string{Reactive: "reactive", Proactive: "proactive", Predictive: "predictive"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Priority orders the work queue.
type Priority uint8

// Priorities, highest first.
const (
	P0 Priority = iota // outage-impacting, work immediately
	P1                 // degraded (flapping) link
	P2                 // proactive/predictive background work
)

// String returns "P0".."P2".
func (p Priority) String() string { return fmt.Sprintf("P%d", uint8(p)) }

// SLA returns the service-window target for the priority, matching today's
// practice of hours for high-priority and days for routine repairs (§1).
func (p Priority) SLA() sim.Time {
	switch p {
	case P0:
		return 4 * sim.Hour
	case P1:
		return 2 * sim.Day
	default:
		return 7 * sim.Day
	}
}

// Status is the ticket lifecycle state.
type Status uint8

// Lifecycle states.
const (
	Open Status = iota
	Assigned
	Active // repair physically underway
	Resolved
	Cancelled
)

var statusNames = [...]string{
	Open: "open", Assigned: "assigned", Active: "active",
	Resolved: "resolved", Cancelled: "cancelled",
}

// String returns the status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Attempt records one physical repair attempt made under a ticket.
type Attempt struct {
	Action  faults.Action
	End     faults.End
	Actor   string // robot or technician id
	At      sim.Time
	Fixed   bool
	Note    string
	Touched int // collateral cables contacted
}

// Ticket is one unit of repair work.
type Ticket struct {
	ID       int
	Link     *topology.Link
	Kind     Kind
	Priority Priority
	Symptom  faults.Health
	Status   Status

	CreatedAt  sim.Time
	StartedAt  sim.Time
	ResolvedAt sim.Time

	Assignee string
	Attempts []Attempt

	// RepeatOf is the ID of the previous ticket for the same link whose
	// resolution this ticket reopened within the dedup window, or -1.
	RepeatOf int
	// StartStage is the escalation rung this ticket starts at (index into
	// faults.AllActions), derived from repeat history.
	StartStage int
	// Dedups counts additional alerts folded into this ticket while open.
	Dedups int
}

// ServiceWindow is the failure-to-fixed duration; it is the paper's
// headline metric ("shrinking the duration from hours and days to literally
// minutes", §2). It returns 0 for unresolved tickets.
func (t *Ticket) ServiceWindow() sim.Time {
	if t.Status != Resolved {
		return 0
	}
	return t.ResolvedAt - t.CreatedAt
}

// MetSLA reports whether the resolved ticket met its priority's target.
func (t *Ticket) MetSLA() bool {
	return t.Status == Resolved && t.ServiceWindow() <= t.Priority.SLA()
}

// String renders a one-line summary.
func (t *Ticket) String() string {
	return fmt.Sprintf("T%d %s %v %v %v stage=%d", t.ID, t.Link.Name(), t.Kind, t.Priority, t.Status, t.StartStage)
}

// Config tunes the store.
type Config struct {
	// RepeatWindow is how long after a resolution a new ticket for the
	// same link counts as a repeat and escalates the starting rung.
	RepeatWindow sim.Time
}

// DefaultConfig uses a 14-day repeat window.
func DefaultConfig() Config { return Config{RepeatWindow: 14 * sim.Day} }

// Store owns all tickets for one network.
type Store struct {
	eng *sim.Engine
	cfg Config

	tickets []*Ticket
	open    map[topology.LinkID]*Ticket

	// lastResolved tracks, per link, the last resolved ticket for repeat
	// detection.
	lastResolved map[topology.LinkID]*Ticket
}

// NewStore creates an empty ticket store.
func NewStore(eng *sim.Engine, cfg Config) *Store {
	return &Store{
		eng:          eng,
		cfg:          cfg,
		open:         make(map[topology.LinkID]*Ticket),
		lastResolved: make(map[topology.LinkID]*Ticket),
	}
}

// Open files a ticket for the link, deduplicating against an existing open
// ticket (returned with created=false after folding the alert in). Repeat
// detection escalates StartStage past the last ticket's resolving rung.
func (s *Store) Open(l *topology.Link, kind Kind, symptom faults.Health, prio Priority) (t *Ticket, created bool) {
	if existing, ok := s.open[l.ID]; ok {
		existing.Dedups++
		// An outage supersedes a degradation ticket's priority.
		if prio < existing.Priority {
			existing.Priority = prio
			existing.Symptom = symptom
		}
		return existing, false
	}
	t = &Ticket{
		ID:        len(s.tickets),
		Link:      l,
		Kind:      kind,
		Priority:  prio,
		Symptom:   symptom,
		Status:    Open,
		CreatedAt: s.eng.Now(),
		RepeatOf:  -1,
	}
	if prev := s.lastResolved[l.ID]; prev != nil && s.eng.Now()-prev.ResolvedAt <= s.cfg.RepeatWindow {
		t.RepeatOf = prev.ID
		t.StartStage = prev.resolvedStage() + 1
		if t.StartStage >= len(faults.AllActions) {
			t.StartStage = len(faults.AllActions) - 1
		}
	}
	s.tickets = append(s.tickets, t)
	s.open[l.ID] = t
	return t, true
}

// resolvedStage returns the rung of the attempt that resolved the ticket,
// or -1 if it has no fixing attempt (e.g. cancelled).
func (t *Ticket) resolvedStage() int {
	for i := len(t.Attempts) - 1; i >= 0; i-- {
		if t.Attempts[i].Fixed {
			for s, a := range faults.AllActions {
				if a == t.Attempts[i].Action {
					return s
				}
			}
		}
	}
	return -1
}

// Assign moves an open ticket to an actor.
func (s *Store) Assign(t *Ticket, actor string) {
	t.Status = Assigned
	t.Assignee = actor
}

// Start marks physical work underway.
func (s *Store) Start(t *Ticket) {
	t.Status = Active
	if t.StartedAt == 0 {
		t.StartedAt = s.eng.Now()
	}
}

// Record appends a repair attempt to the ticket.
func (s *Store) Record(t *Ticket, a Attempt) {
	t.Attempts = append(t.Attempts, a)
}

// Resolve closes the ticket as fixed.
func (s *Store) Resolve(t *Ticket) {
	t.Status = Resolved
	t.ResolvedAt = s.eng.Now()
	delete(s.open, t.Link.ID)
	s.lastResolved[t.Link.ID] = t
}

// Cancel closes the ticket without a fix (e.g. superseded or false
// positive).
func (s *Store) Cancel(t *Ticket) {
	t.Status = Cancelled
	delete(s.open, t.Link.ID)
}

// OpenFor returns the open ticket for a link, or nil.
func (s *Store) OpenFor(id topology.LinkID) *Ticket { return s.open[id] }

// OpenQueue returns open+assigned tickets ordered by (priority, age).
func (s *Store) OpenQueue() []*Ticket {
	var q []*Ticket
	//lint:allow mapiter collected tickets get a total (priority, age, id) sort below; iteration order cannot survive it
	for _, t := range s.open {
		if t.Status == Open {
			q = append(q, t)
		}
	}
	sort.Slice(q, func(i, j int) bool {
		if q[i].Priority != q[j].Priority {
			return q[i].Priority < q[j].Priority
		}
		if q[i].CreatedAt != q[j].CreatedAt {
			return q[i].CreatedAt < q[j].CreatedAt
		}
		return q[i].ID < q[j].ID
	})
	return q
}

// All returns every ticket ever filed, in creation order. A ticket's ID is
// its index here: Open numbers tickets densely and nothing removes one.
func (s *Store) All() []*Ticket { return s.tickets }

// Summary aggregates resolved-ticket statistics.
type Summary struct {
	Total, Resolved, Cancelled int
	Repeats                    int
	Dedups                     int
	MeanWindow                 sim.Time
	MaxWindow                  sim.Time
	SLAMet                     int
	AttemptsPerResolved        float64
	ByKind                     map[Kind]int
}

// Summarize computes the store-wide summary.
func (s *Store) Summarize() Summary {
	sum := Summary{ByKind: make(map[Kind]int)}
	var windowTotal sim.Time
	var attempts int
	for _, t := range s.tickets {
		sum.Total++
		sum.ByKind[t.Kind]++
		sum.Dedups += t.Dedups
		if t.RepeatOf >= 0 {
			sum.Repeats++
		}
		switch t.Status {
		case Resolved:
			sum.Resolved++
			w := t.ServiceWindow()
			windowTotal += w
			if w > sum.MaxWindow {
				sum.MaxWindow = w
			}
			if t.MetSLA() {
				sum.SLAMet++
			}
			attempts += len(t.Attempts)
		case Cancelled:
			sum.Cancelled++
		}
	}
	if sum.Resolved > 0 {
		sum.MeanWindow = windowTotal / sim.Time(sum.Resolved)
		sum.AttemptsPerResolved = float64(attempts) / float64(sum.Resolved)
	}
	return sum
}
