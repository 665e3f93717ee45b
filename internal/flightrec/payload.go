package flightrec

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Payload is a decoded event payload. Concrete types mirror the live bus
// payload structs field-for-field but hold only plain values (link names,
// not *topology.Link), so a recording is self-contained: replay needs no
// topology, no world, no simulation.
//
// Payload kinds are append-only and identified on the wire by interned
// name strings; a reader that does not recognize a kind decodes the fields
// generically (PUnknown) and keeps going.
type Payload interface {
	// PayloadKind is the stable wire name of this payload type.
	PayloadKind() string
	encodeFields(e *enc)
	// String is the event's one text form (see Convert).
	String() string
}

// payloadDecoders maps wire names to field decoders. Lookup only — never
// iterated — so map order cannot reach output.
var payloadDecoders = map[string]func(fieldSet) Payload{
	"alert":         decodeAlert,
	"request":       decodeRequest,
	"ticket":        decodeTicket,
	"dispatch":      decodeDispatch,
	"outcome":       decodeOutcome,
	"watchdog":      decodeWatchdog,
	"degraded":      decodeDegraded,
	"journal":       decodeJournal,
	"fleet-summary": decodeFleetSummary,
	"fleet-ticket":  decodeFleetTicket,
	"transfer":      decodeTransfer,
	"generic":       decodeGeneric,
}

func decodePayload(name string, fs fieldSet) Payload {
	if fn, ok := payloadDecoders[name]; ok {
		return fn(fs)
	}
	return &PUnknown{Name: name, Fields: fs}
}

// Convert maps a live bus payload to its typed mirror. The mirror's String
// is the one text form of the event: the control-plane feed, selfmaintd's
// /events and /log, the decision log, replay and diff all print it, and
// recordings store its fields. A type with no mirror becomes a PGeneric
// carrying its Go type name and fmt rendering. Convert is pure, so taps
// may call it from shard goroutines.
func Convert(p any) Payload {
	switch v := p.(type) {
	case bus.Alert:
		return &PAlert{Kind: uint8(v.Kind), Link: linkName(v.Link), At: v.At, Detail: v.Detail}
	case bus.RepairRequest:
		return &PRequest{Link: linkName(v.Link), Predictive: v.Predictive}
	case bus.TicketEvent:
		return &PTicket{Kind: uint8(v.Kind), ID: v.ID, Link: linkName(v.Link),
			Action: uint8(v.Action), Reactive: v.Reactive}
	case bus.Dispatch:
		return &PDispatch{Ticket: v.Ticket, Link: linkName(v.Link), Actor: v.Actor,
			Robot: v.Robot, Action: uint8(v.Action), End: uint8(v.End)}
	case bus.WorkOutcome:
		return &POutcome{Ticket: v.Ticket, Link: linkName(v.Link), Actor: v.Actor,
			Robot: v.Robot, Action: uint8(v.Action),
			Completed: v.Completed, Fixed: v.Fixed, Note: v.Note}
	case bus.WatchdogFired:
		return &PWatchdog{Ticket: v.Ticket, Link: linkName(v.Link), Actor: v.Actor,
			Robot: v.Robot, Action: uint8(v.Action),
			Deadline: v.Deadline, Attempt: v.Attempt, Backoff: v.Backoff}
	case bus.Degraded:
		return &PDegraded{Ticket: v.Ticket, Link: linkName(v.Link), RobotFailures: v.RobotFailures}
	case core.JournalEntry:
		return &PJournal{At: v.At, Kind: uint8(v.Kind), Ticket: v.Ticket, Link: v.Link, Detail: v.Detail}
	case fleet.Summary:
		return &PFleetSummary{Region: v.Region, At: v.At, Links: v.Links, LinksDown: v.LinksDown,
			OpenTickets: v.OpenTickets, Resolved: v.Resolved,
			RobotsIdle: v.RobotsIdle, RobotsTotal: v.RobotsTotal}
	case fleet.Ticket:
		return &PFleetTicket{Region: v.Region, OpenedAt: v.OpenedAt, ClosedAt: v.ClosedAt}
	case fleet.TransferNote:
		return &PTransfer{From: v.From, To: v.To, Granted: v.Granted, Unit: v.Unit}
	}
	return &PGeneric{TypeName: fmt.Sprintf("%T", p), Text: fmt.Sprint(p)}
}

func linkName(l *topology.Link) string {
	if l == nil {
		return ""
	}
	return l.Name()
}

// PAlert mirrors bus.Alert.
type PAlert struct {
	Kind   uint8 // bus.AlertKind
	Link   string
	At     sim.Time
	Detail string
}

func (p *PAlert) PayloadKind() string { return "alert" }

func (p *PAlert) encodeFields(e *enc) {
	e.tagU(1, uint64(p.Kind))
	e.tagS(2, p.Link)
	e.tagU(3, uint64(p.At))
	e.tagS(4, p.Detail)
}

func decodeAlert(fs fieldSet) Payload {
	return &PAlert{Kind: uint8(fs.u(1)), Link: fs.s(2), At: sim.Time(fs.u(3)), Detail: fs.s(4)}
}

func (p *PAlert) String() string {
	s := fmt.Sprintf("alert{%v %s", bus.AlertKind(p.Kind), p.Link)
	if p.Detail != "" {
		s += " " + p.Detail
	}
	return s + "}"
}

// PRequest mirrors bus.RepairRequest.
type PRequest struct {
	Link       string
	Predictive bool
}

func (p *PRequest) PayloadKind() string { return "request" }

func (p *PRequest) encodeFields(e *enc) {
	e.tagS(1, p.Link)
	e.tagB(2, p.Predictive)
}

func decodeRequest(fs fieldSet) Payload {
	return &PRequest{Link: fs.s(1), Predictive: fs.b(2)}
}

func (p *PRequest) String() string {
	kind := "proactive"
	if p.Predictive {
		kind = "predictive"
	}
	return fmt.Sprintf("request{%s %s}", kind, p.Link)
}

// PTicket mirrors bus.TicketEvent.
type PTicket struct {
	Kind     uint8 // bus.TicketEventKind
	ID       int
	Link     string
	Action   uint8 // faults.Action, meaningful on resolved events
	Reactive bool
}

func (p *PTicket) PayloadKind() string { return "ticket" }

func (p *PTicket) encodeFields(e *enc) {
	e.tagU(1, uint64(p.Kind))
	e.tagI(2, int64(p.ID))
	e.tagS(3, p.Link)
	e.tagU(4, uint64(p.Action))
	e.tagB(5, p.Reactive)
}

func decodeTicket(fs fieldSet) Payload {
	return &PTicket{Kind: uint8(fs.u(1)), ID: int(fs.i(2)), Link: fs.s(3),
		Action: uint8(fs.u(4)), Reactive: fs.b(5)}
}

func (p *PTicket) String() string {
	s := fmt.Sprintf("ticket{T%d %s %v", p.ID, p.Link, bus.TicketEventKind(p.Kind))
	if bus.TicketEventKind(p.Kind) == bus.TicketResolved {
		s += " via " + faults.Action(p.Action).String()
	}
	if p.Reactive {
		s += " reactive"
	}
	return s + "}"
}

// PDispatch mirrors bus.Dispatch.
type PDispatch struct {
	Ticket int
	Link   string
	Actor  string
	Robot  bool
	Action uint8 // faults.Action
	End    uint8 // faults.End
}

func (p *PDispatch) PayloadKind() string { return "dispatch" }

func (p *PDispatch) encodeFields(e *enc) {
	e.tagI(1, int64(p.Ticket))
	e.tagS(2, p.Link)
	e.tagS(3, p.Actor)
	e.tagB(4, p.Robot)
	e.tagU(5, uint64(p.Action))
	e.tagU(6, uint64(p.End))
}

func decodeDispatch(fs fieldSet) Payload {
	return &PDispatch{Ticket: int(fs.i(1)), Link: fs.s(2), Actor: fs.s(3),
		Robot: fs.b(4), Action: uint8(fs.u(5)), End: uint8(fs.u(6))}
}

func (p *PDispatch) String() string {
	return fmt.Sprintf("dispatch{T%d %s %s %v@%v by %s}", p.Ticket, p.Link, lane(p.Robot),
		faults.Action(p.Action), faults.End(p.End), p.Actor)
}

func lane(robot bool) string {
	if robot {
		return "robot"
	}
	return "human"
}

// POutcome mirrors bus.WorkOutcome.
type POutcome struct {
	Ticket    int
	Link      string
	Actor     string
	Robot     bool
	Action    uint8 // faults.Action
	Completed bool
	Fixed     bool
	Note      string
}

func (p *POutcome) PayloadKind() string { return "outcome" }

func (p *POutcome) encodeFields(e *enc) {
	e.tagI(1, int64(p.Ticket))
	e.tagS(2, p.Link)
	e.tagS(3, p.Actor)
	e.tagB(4, p.Robot)
	e.tagU(5, uint64(p.Action))
	e.tagB(6, p.Completed)
	e.tagB(7, p.Fixed)
	e.tagS(8, p.Note)
}

func decodeOutcome(fs fieldSet) Payload {
	return &POutcome{Ticket: int(fs.i(1)), Link: fs.s(2), Actor: fs.s(3),
		Robot: fs.b(4), Action: uint8(fs.u(5)),
		Completed: fs.b(6), Fixed: fs.b(7), Note: fs.s(8)}
}

func (p *POutcome) String() string {
	verdict := "failed"
	switch {
	case p.Fixed:
		verdict = "fixed"
	case p.Completed:
		verdict = "performed, not fixed"
	}
	s := fmt.Sprintf("outcome{T%d %s %v by %s: %s", p.Ticket, p.Link,
		faults.Action(p.Action), p.Actor, verdict)
	if p.Note != "" {
		s += " (" + p.Note + ")"
	}
	return s + "}"
}

// PWatchdog mirrors bus.WatchdogFired.
type PWatchdog struct {
	Ticket   int
	Link     string
	Actor    string
	Robot    bool
	Action   uint8 // faults.Action
	Deadline sim.Time
	Attempt  int
	Backoff  sim.Time
}

func (p *PWatchdog) PayloadKind() string { return "watchdog" }

func (p *PWatchdog) encodeFields(e *enc) {
	e.tagI(1, int64(p.Ticket))
	e.tagS(2, p.Link)
	e.tagS(3, p.Actor)
	e.tagB(4, p.Robot)
	e.tagU(5, uint64(p.Action))
	e.tagU(6, uint64(p.Deadline))
	e.tagI(7, int64(p.Attempt))
	e.tagU(8, uint64(p.Backoff))
}

func decodeWatchdog(fs fieldSet) Payload {
	return &PWatchdog{Ticket: int(fs.i(1)), Link: fs.s(2), Actor: fs.s(3),
		Robot: fs.b(4), Action: uint8(fs.u(5)),
		Deadline: sim.Time(fs.u(6)), Attempt: int(fs.i(7)), Backoff: sim.Time(fs.u(8))}
}

func (p *PWatchdog) String() string {
	return fmt.Sprintf("watchdog{T%d %s %s %v by %s after %v attempt=%d backoff=%v}",
		p.Ticket, p.Link, lane(p.Robot), faults.Action(p.Action), p.Actor,
		p.Deadline, p.Attempt, p.Backoff)
}

// PDegraded mirrors bus.Degraded.
type PDegraded struct {
	Ticket        int
	Link          string
	RobotFailures int
}

func (p *PDegraded) PayloadKind() string { return "degraded" }

func (p *PDegraded) encodeFields(e *enc) {
	e.tagI(1, int64(p.Ticket))
	e.tagS(2, p.Link)
	e.tagI(3, int64(p.RobotFailures))
}

func decodeDegraded(fs fieldSet) Payload {
	return &PDegraded{Ticket: int(fs.i(1)), Link: fs.s(2), RobotFailures: int(fs.i(3))}
}

func (p *PDegraded) String() string {
	return fmt.Sprintf("degraded{T%d %s failures=%d}", p.Ticket, p.Link, p.RobotFailures)
}

// PJournal mirrors core.JournalEntry.
type PJournal struct {
	At     sim.Time
	Kind   uint8 // core.EventKind
	Ticket int   // -1 when not ticket-scoped, like the live entry
	Link   string
	Detail string
}

func (p *PJournal) PayloadKind() string { return "journal" }

func (p *PJournal) encodeFields(e *enc) {
	e.tagU(1, uint64(p.At))
	e.tagU(2, uint64(p.Kind))
	e.tagI(3, int64(p.Ticket))
	e.tagS(4, p.Link)
	e.tagS(5, p.Detail)
}

func decodeJournal(fs fieldSet) Payload {
	return &PJournal{At: sim.Time(fs.u(1)), Kind: uint8(fs.u(2)), Ticket: int(fs.i(3)),
		Link: fs.s(4), Detail: fs.s(5)}
}

func (p *PJournal) String() string {
	s := fmt.Sprintf("journal{%v", core.EventKind(p.Kind))
	if p.Ticket >= 0 {
		s += fmt.Sprintf(" T%d", p.Ticket)
	}
	if p.Link != "" {
		s += " " + p.Link
	}
	if p.Detail != "" {
		s += ": " + p.Detail
	}
	return s + "}"
}

// PFleetSummary mirrors fleet.Summary.
type PFleetSummary struct {
	Region      int
	At          sim.Time
	Links       int
	LinksDown   int
	OpenTickets int
	Resolved    int
	RobotsIdle  int
	RobotsTotal int
}

func (p *PFleetSummary) PayloadKind() string { return "fleet-summary" }

func (p *PFleetSummary) encodeFields(e *enc) {
	e.tagI(1, int64(p.Region))
	e.tagU(2, uint64(p.At))
	e.tagI(3, int64(p.Links))
	e.tagI(4, int64(p.LinksDown))
	e.tagI(5, int64(p.OpenTickets))
	e.tagI(6, int64(p.Resolved))
	e.tagI(7, int64(p.RobotsIdle))
	e.tagI(8, int64(p.RobotsTotal))
}

func decodeFleetSummary(fs fieldSet) Payload {
	return &PFleetSummary{Region: int(fs.i(1)), At: sim.Time(fs.u(2)),
		Links: int(fs.i(3)), LinksDown: int(fs.i(4)),
		OpenTickets: int(fs.i(5)), Resolved: int(fs.i(6)),
		RobotsIdle: int(fs.i(7)), RobotsTotal: int(fs.i(8))}
}

func (p *PFleetSummary) String() string {
	return fmt.Sprintf("fleet-summary{region=%d links=%d down=%d open=%d resolved=%d robots=%d/%d}",
		p.Region, p.Links, p.LinksDown, p.OpenTickets, p.Resolved, p.RobotsIdle, p.RobotsTotal)
}

// PFleetTicket mirrors fleet.Ticket.
type PFleetTicket struct {
	Region   int
	OpenedAt sim.Time
	ClosedAt sim.Time
}

func (p *PFleetTicket) PayloadKind() string { return "fleet-ticket" }

func (p *PFleetTicket) encodeFields(e *enc) {
	e.tagI(1, int64(p.Region))
	e.tagU(2, uint64(p.OpenedAt))
	e.tagU(3, uint64(p.ClosedAt))
}

func decodeFleetTicket(fs fieldSet) Payload {
	return &PFleetTicket{Region: int(fs.i(1)), OpenedAt: sim.Time(fs.u(2)), ClosedAt: sim.Time(fs.u(3))}
}

func (p *PFleetTicket) String() string {
	state := "open"
	if p.ClosedAt != 0 {
		state = fmt.Sprintf("closed@%d", int64(p.ClosedAt))
	}
	return fmt.Sprintf("fleet-ticket{region=%d opened@%d %s}", p.Region, int64(p.OpenedAt), state)
}

// PTransfer mirrors fleet.TransferNote.
type PTransfer struct {
	From    int
	To      int
	Granted bool
	Unit    string
}

func (p *PTransfer) PayloadKind() string { return "transfer" }

func (p *PTransfer) encodeFields(e *enc) {
	e.tagI(1, int64(p.From))
	e.tagI(2, int64(p.To))
	e.tagB(3, p.Granted)
	e.tagS(4, p.Unit)
}

func decodeTransfer(fs fieldSet) Payload {
	return &PTransfer{From: int(fs.i(1)), To: int(fs.i(2)), Granted: fs.b(3), Unit: fs.s(4)}
}

func (p *PTransfer) String() string {
	verdict := "declined"
	if p.Granted {
		verdict = "granted " + p.Unit
	}
	return fmt.Sprintf("transfer{%d->%d %s}", p.From, p.To, verdict)
}

// PGeneric records a payload type Convert has no mirror for: its Go type
// name and fmt rendering. That rendering is deterministic only for
// pointer-free values; a pipeline payload must get a mirror instead
// (TestBusPayloadsHaveTypedText guards the live buses).
type PGeneric struct {
	TypeName string
	Text     string
}

func (p *PGeneric) PayloadKind() string { return "generic" }

func (p *PGeneric) encodeFields(e *enc) {
	e.tagS(1, p.TypeName)
	e.tagS(2, p.Text)
}

func decodeGeneric(fs fieldSet) Payload {
	return &PGeneric{TypeName: fs.s(1), Text: fs.s(2)}
}

func (p *PGeneric) String() string {
	return fmt.Sprintf("generic{%s %s}", p.TypeName, p.Text)
}

// PUnknown is a payload whose wire kind this reader predates. The fields
// survive generically, so renders and diffs still work; per the evolution
// rules it never round-trips back to the typed form.
type PUnknown struct {
	Name   string
	Fields fieldSet
}

func (p *PUnknown) PayloadKind() string { return p.Name }

func (p *PUnknown) encodeFields(e *enc) {
	for _, f := range p.Fields {
		switch f.wire {
		case wireUint:
			e.tagU(f.tag, f.u)
		case wireSint:
			e.tagI(f.tag, f.i)
		case wireStr:
			e.tagS(f.tag, f.s)
		case wireFloat:
			e.u(f.tag<<2 | wireFloat)
			e.f(f.f)
		}
	}
}

func (p *PUnknown) String() string {
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('{')
	for i, f := range p.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch f.wire {
		case wireUint:
			fmt.Fprintf(&b, "%d=%d", f.tag, f.u)
		case wireSint:
			fmt.Fprintf(&b, "%d=%d", f.tag, f.i)
		case wireStr:
			fmt.Fprintf(&b, "%d=%q", f.tag, f.s)
		case wireFloat:
			fmt.Fprintf(&b, "%d=%s", f.tag, fmtFloat(f.f))
		}
	}
	b.WriteByte('}')
	return b.String()
}
