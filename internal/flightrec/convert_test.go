package flightrec

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestConvertText pins the one text form of every pipeline and fleet
// payload: what the control-plane stream, selfmaintd's /events and /log,
// the decision log, replay and diff all print. A live payload with a
// mirror never falls back to PGeneric.
func TestConvertText(t *testing.T) {
	n, err := topology.NewFatTree(topology.DefaultFatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	l := n.Links[0]
	name := l.Name()
	cases := []struct {
		in   any
		want string
	}{
		// An alert with no detail ends at the link name.
		{bus.Alert{Kind: bus.AlertLinkDown, Link: l, At: sim.Hour}, "alert{link-down " + name + "}"},
		{bus.Alert{Kind: bus.AlertLinkFlapping, Link: l, Detail: "flap burst"},
			"alert{link-flapping " + name + " flap burst}"},
		{bus.RepairRequest{Link: l, Predictive: true}, "request{predictive " + name + "}"},
		{bus.RepairRequest{Link: l}, "request{proactive " + name + "}"},
		// A resolved ticket names the action that resolved it.
		{bus.TicketEvent{Kind: bus.TicketResolved, ID: 4, Link: l, Action: faults.ReplaceXcvr, Reactive: true},
			"ticket{T4 " + name + " resolved via replace-xcvr reactive}"},
		{bus.TicketEvent{Kind: bus.TicketOpened, ID: 4, Link: l}, "ticket{T4 " + name + " opened}"},
		{bus.Dispatch{Ticket: 4, Link: l, Actor: "robot-r1", Robot: true, Action: faults.Reseat, End: faults.EndA},
			"dispatch{T4 " + name + " robot reseat@A by robot-r1}"},
		// An outcome keeps its note.
		{bus.WorkOutcome{Ticket: 4, Link: l, Actor: "tech-0", Action: faults.Clean, Completed: true, Note: "wrong end"},
			"outcome{T4 " + name + " clean by tech-0: performed, not fixed (wrong end)}"},
		{bus.WatchdogFired{Ticket: 4, Link: l, Actor: "robot-r1", Robot: true, Action: faults.Reseat,
			Deadline: 2 * sim.Hour, Attempt: 2, Backoff: 30 * sim.Minute},
			"watchdog{T4 " + name + " robot reseat by robot-r1 after 02:00:00.000 attempt=2 backoff=00:30:00.000}"},
		{bus.Degraded{Ticket: 4, Link: l, RobotFailures: 3}, "degraded{T4 " + name + " failures=3}"},
		{core.JournalEntry{At: 90 * sim.Second, Kind: core.EvDispatchRobot, Ticket: 7,
			Link: "leaf0/p0<->spine0/p0", Detail: "reseat@A"},
			"journal{dispatch-robot T7 leaf0/p0<->spine0/p0: reseat@A}"},
		// Entries that are not ticket- or link-scoped omit those fields.
		{core.JournalEntry{Kind: core.EvProactiveCampaign, Ticket: -1}, "journal{proactive-campaign}"},
		{fleet.Summary{Region: 1, Links: 48, LinksDown: 2, OpenTickets: 3, Resolved: 5, RobotsIdle: 1, RobotsTotal: 2},
			"fleet-summary{region=1 links=48 down=2 open=3 resolved=5 robots=1/2}"},
		{fleet.Ticket{Region: 2, OpenedAt: 100}, "fleet-ticket{region=2 opened@100 open}"},
		{fleet.TransferNote{From: 0, To: 1, Granted: true, Unit: "robot-r2"}, "transfer{0->1 granted robot-r2}"},
		{fleet.TransferNote{From: 1, To: 0}, "transfer{1->0 declined}"},
	}
	for _, tc := range cases {
		p := Convert(tc.in)
		if _, generic := p.(*PGeneric); generic {
			t.Errorf("Convert(%T) fell back to PGeneric", tc.in)
		}
		if got := p.String(); got != tc.want {
			t.Errorf("Convert(%T).String() = %q, want %q", tc.in, got, tc.want)
		}
	}

	if got := Convert(struct{ X int }{42}).String(); got != "generic{struct { X int } {42}}" {
		t.Errorf("unmirrored payload renders %q", got)
	}
}
