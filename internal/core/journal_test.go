package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func entry(i int) JournalEntry {
	return JournalEntry{At: sim.Time(i) * sim.Second, Kind: EvTicketOpened,
		Ticket: i, Link: "l", Detail: fmt.Sprintf("e%d", i)}
}

// TestJournalTailPartial covers the pre-wrap regime: everything added is
// retained, oldest first, and tail(n) trims from the front.
func TestJournalTailPartial(t *testing.T) {
	var j journal
	if got := j.tail(0); len(got) != 0 {
		t.Fatalf("empty journal returned %d entries", len(got))
	}
	for i := 0; i < 10; i++ {
		j.add(entry(i))
	}
	all := j.tail(0)
	if len(all) != 10 {
		t.Fatalf("tail(0) = %d entries, want 10", len(all))
	}
	for i, e := range all {
		if e.Ticket != i {
			t.Fatalf("tail(0)[%d].Ticket = %d, want %d", i, e.Ticket, i)
		}
	}
	last3 := j.tail(3)
	if len(last3) != 3 || last3[0].Ticket != 7 || last3[2].Ticket != 9 {
		t.Fatalf("tail(3) = %v, want tickets 7..9", last3)
	}
	// Asking for more than retained returns what exists.
	if got := j.tail(100); len(got) != 10 {
		t.Fatalf("tail(100) = %d entries, want 10", len(got))
	}
}

// TestJournalTruncatesAtCapacity covers the ring semantics: once more than
// journalCap entries are added, only the newest journalCap survive, still
// oldest first.
func TestJournalTruncatesAtCapacity(t *testing.T) {
	var j journal
	const extra = 100
	for i := 0; i < journalCap+extra; i++ {
		j.add(entry(i))
	}
	all := j.tail(0)
	if len(all) != journalCap {
		t.Fatalf("tail(0) after wrap = %d entries, want %d", len(all), journalCap)
	}
	if all[0].Ticket != extra {
		t.Fatalf("oldest retained = %d, want %d (first %d truncated)",
			all[0].Ticket, extra, extra)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Ticket != all[i-1].Ticket+1 {
			t.Fatalf("ordering broken at %d: %d after %d", i, all[i].Ticket, all[i-1].Ticket)
		}
	}
	if last := all[len(all)-1].Ticket; last != journalCap+extra-1 {
		t.Fatalf("newest retained = %d, want %d", last, journalCap+extra-1)
	}
}

// TestJournalGrowsOnDemand: a journal holds what it took, not a whole
// ring. After 10 decisions its capacity is below journalCap; after
// journalCap+10 it holds exactly journalCap entries, the last ones, in
// order.
func TestJournalGrowsOnDemand(t *testing.T) {
	var j journal
	for i := 0; i < 10; i++ {
		j.add(entry(i))
	}
	if c := cap(j.entries); c >= journalCap {
		t.Fatalf("after 10 decisions the ring has capacity %d, want < %d", c, journalCap)
	}
	for i := 10; i < journalCap+10; i++ {
		j.add(entry(i))
	}
	if c := cap(j.entries); c != journalCap {
		t.Fatalf("full ring has capacity %d, want %d", c, journalCap)
	}
	all := j.tail(0)
	if len(all) != journalCap {
		t.Fatalf("tail(0) = %d entries, want %d", len(all), journalCap)
	}
	for i, e := range all {
		if e.Ticket != 10+i {
			t.Fatalf("tail(0)[%d].Ticket = %d, want %d", i, e.Ticket, 10+i)
		}
	}
}

// TestJournalTailAtExactCapacity covers the boundary where add has filled
// every slot and reset next to 0: the ring is full but nothing has been
// overwritten yet, and tail must not drop or duplicate the entry at the
// wrap point.
func TestJournalTailAtExactCapacity(t *testing.T) {
	var j journal
	for i := 0; i < journalCap; i++ {
		j.add(entry(i))
	}
	if !j.full || j.next != 0 {
		t.Fatalf("after %d adds: full=%v next=%d, want full=true next=0", journalCap, j.full, j.next)
	}
	all := j.tail(0)
	if len(all) != journalCap {
		t.Fatalf("tail(0) = %d entries, want %d", len(all), journalCap)
	}
	if all[0].Ticket != 0 || all[journalCap-1].Ticket != journalCap-1 {
		t.Fatalf("exactly-full tail spans %d..%d, want 0..%d",
			all[0].Ticket, all[journalCap-1].Ticket, journalCap-1)
	}
}

// TestJournalTailLimitAcrossWrap asks for a tail that straddles the ring's
// next pointer: after wrapping, the newest entries live before next and the
// oldest after it, and an n-limited tail must splice them in time order.
func TestJournalTailLimitAcrossWrap(t *testing.T) {
	var j journal
	const extra = 3
	for i := 0; i < journalCap+extra; i++ {
		j.add(entry(i))
	}
	// next == extra: slots [extra:] hold the older half, [:extra] the newest
	// three. A 10-entry tail needs 7 from before the boundary and 3 after.
	got := j.tail(10)
	if len(got) != 10 {
		t.Fatalf("tail(10) = %d entries, want 10", len(got))
	}
	want := journalCap + extra - 10
	for i, e := range got {
		if e.Ticket != want+i {
			t.Fatalf("tail(10)[%d].Ticket = %d, want %d", i, e.Ticket, want+i)
		}
	}
}

// TestJournalTailIsACopy verifies that mutating a returned slice cannot
// corrupt the ring.
func TestJournalTailIsACopy(t *testing.T) {
	var j journal
	for i := 0; i < 5; i++ {
		j.add(entry(i))
	}
	got := j.tail(0)
	got[0].Ticket = 999
	if again := j.tail(0); again[0].Ticket != 0 {
		t.Fatalf("ring mutated through tail() result: ticket %d", again[0].Ticket)
	}
}
