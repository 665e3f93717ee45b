package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// EventKind classifies a controller decision for the journal.
type EventKind uint8

// Journal event kinds.
const (
	EvTicketOpened EventKind = iota
	EvTicketResolved
	EvTicketCancelled
	EvDispatchRobot
	EvDispatchHuman
	EvPreDrain
	EvEscalateLadder
	EvEscalateHuman
	EvSafetyHold
	EvStockoutWait
	EvChronic
	EvProactiveCampaign
	EvPredictiveTicket
	EvWatchdog
	EvDegraded
	EvLateOutcome
)

var eventKindNames = [...]string{
	EvTicketOpened:      "ticket-opened",
	EvTicketResolved:    "ticket-resolved",
	EvTicketCancelled:   "ticket-cancelled",
	EvDispatchRobot:     "dispatch-robot",
	EvDispatchHuman:     "dispatch-human",
	EvPreDrain:          "pre-drain",
	EvEscalateLadder:    "escalate-ladder",
	EvEscalateHuman:     "escalate-human",
	EvSafetyHold:        "safety-hold",
	EvStockoutWait:      "stockout-wait",
	EvChronic:           "chronic",
	EvProactiveCampaign: "proactive-campaign",
	EvPredictiveTicket:  "predictive-ticket",
	EvWatchdog:          "watchdog-fired",
	EvDegraded:          "degraded-to-human",
	EvLateOutcome:       "late-outcome",
}

// String returns the kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// JournalEntry is one controller decision, in virtual time.
type JournalEntry struct {
	At     sim.Time
	Kind   EventKind
	Ticket int    // ticket ID, -1 when not ticket-scoped
	Link   string // link name, "" when not link-scoped
	Detail string
}

// journal is a bounded ring of recent controller decisions: the audit trail
// an operator tails to understand what the control plane is doing and why —
// the observability face of the paper's "controllable and understood by the
// software service" requirement (§2).
//
// The ring grows on demand: entries are appended, in capacities that double
// up to journalCap, until journalCap are held; from then on each entry
// overwrites the oldest, at next. A world that takes few decisions holds a
// few, not a 4,096-entry ring.
type journal struct {
	entries []JournalEntry
	next    int // the oldest entry's slot, once full
	full    bool
}

const journalCap = 4096

func (j *journal) add(e JournalEntry) {
	if j.full {
		j.entries[j.next] = e
		j.next++
		if j.next == journalCap {
			j.next = 0
		}
		return
	}
	if len(j.entries) == cap(j.entries) {
		grown := make([]JournalEntry, len(j.entries), min(max(2*cap(j.entries), 16), journalCap))
		copy(grown, j.entries)
		j.entries = grown
	}
	j.entries = append(j.entries, e)
	j.full = len(j.entries) == journalCap
}

// tail returns up to n most recent entries, oldest first.
func (j *journal) tail(n int) []JournalEntry {
	var all []JournalEntry
	if j.full {
		all = append(all, j.entries[j.next:]...)
		all = append(all, j.entries[:j.next]...)
	} else {
		all = j.entries
	}
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	out := make([]JournalEntry, len(all))
	copy(out, all)
	return out
}

// log publishes a controller decision on the bus; the journal retains it
// via its journal.decision subscription, and any tap (the control-plane
// feed behind the daemon's /events and /log, the flight recorder, tests)
// sees it in order with the rest of the pipeline's events.
func (c *Controller) log(kind EventKind, ticketID int, link, detail string) {
	c.d.Bus.Publish(bus.TopicDecision, JournalEntry{
		At: c.d.Eng.Now(), Kind: kind, Ticket: ticketID, Link: link, Detail: detail,
	})
}

// Journal returns up to n recent controller decisions, oldest first (n <= 0
// returns everything retained).
func (c *Controller) Journal(n int) []JournalEntry {
	return c.journal.tail(n)
}
