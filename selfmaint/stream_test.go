package selfmaint

import (
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/ticket"
)

func feedCluster(t *testing.T) (*Cluster, *controlplane.Hub, *Feed) {
	t.Helper()
	c, err := NewCluster(
		WithSeed(42), WithLevel(L4), WithRobots(), WithTechnicians(2),
		WithFaultAcceleration(30),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := controlplane.NewHub(controlplane.Config{})
	return c, h, c.FeedControlPlane(h)
}

// The feed publishes a complete keyed state immediately, so a snapshot
// taken before any virtual time has passed is already well-formed.
func TestFeedPublishesInitialStatus(t *testing.T) {
	_, h, _ := feedCluster(t)
	if h.Seq() == 0 {
		t.Fatal("feed published nothing at attach")
	}
	raw := h.ViewPayload(controlplane.TopicStatus, "status")
	if raw == nil {
		t.Fatal("no cp.status in view after attach")
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("status payload is not JSON: %v\n%s", err, raw)
	}
	for _, k := range []string{"virtual_time", "tickets_opened", "availability", "robot_tasks"} {
		if _, ok := st[k]; !ok {
			t.Errorf("status payload missing %q: %s", k, raw)
		}
	}
}

// After running virtual time, Sync refreshes the view: the ticket table
// matches the store and the status summary matches the report.
func TestFeedTracksTicketsAndStatus(t *testing.T) {
	c, h, f := feedCluster(t)
	c.Run(20 * Day)
	f.Sync()

	all := c.World().Store.All()
	if len(all) == 0 {
		t.Fatal("scenario produced no tickets; raise acceleration")
	}
	rows := h.ViewEntries(controlplane.TopicTicket)
	if len(rows) != len(all) {
		t.Fatalf("view has %d ticket rows, store has %d", len(rows), len(all))
	}
	byID := make(map[string][]byte, len(rows))
	for _, e := range rows {
		byID[e.Key] = e.Data
	}
	for _, tk := range all {
		raw, ok := byID[strconv.Itoa(tk.ID)]
		if !ok {
			t.Fatalf("ticket %d missing from view", tk.ID)
		}
		var row struct {
			ID       int    `json:"id"`
			Link     string `json:"link"`
			Status   string `json:"status"`
			Attempts int    `json:"attempts"`
			Window   string `json:"window"`
		}
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatalf("ticket row: %v\n%s", err, raw)
		}
		if row.ID != tk.ID || row.Link != tk.Link.Name() || row.Status != tk.Status.String() || row.Attempts != len(tk.Attempts) {
			t.Fatalf("ticket row %s diverges from store ticket %+v", raw, tk)
		}
		if (tk.Status == ticket.Resolved) != (row.Window != "") {
			t.Fatalf("window field mismatch for ticket %d: %s", tk.ID, raw)
		}
	}

	var st struct {
		Opened   int `json:"tickets_opened"`
		Resolved int `json:"tickets_resolved"`
	}
	if err := json.Unmarshal(h.ViewPayload(controlplane.TopicStatus, "status"), &st); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if st.Opened != rep.TicketsOpened || st.Resolved != rep.TicketsResolved {
		t.Fatalf("status says %d/%d, report says %d/%d",
			st.Opened, st.Resolved, rep.TicketsOpened, rep.TicketsResolved)
	}
}

// cp.health mirrors the injector's observable state: a fault appears under
// the link's key and recovery tombstones it away.
func TestFeedHealthTombstones(t *testing.T) {
	c, h, f := feedCluster(t)
	name, err := c.InjectFault(0, XcvrDead)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(Minute) // let telemetry observe the transition
	f.Sync()
	if h.ViewPayload(controlplane.TopicHealth, name) == nil {
		t.Fatalf("no cp.health entry for faulted link %s", name)
	}

	for i := 0; i < 40 && h.ViewPayload(controlplane.TopicHealth, name) != nil; i++ {
		c.Run(6 * Hour)
		f.Sync()
	}
	if h.ViewPayload(controlplane.TopicHealth, name) != nil {
		t.Fatalf("link %s still unhealthy in view after 10 days of L4 repair", name)
	}
	// The whole view must agree with the injector, link by link.
	w := c.World()
	unhealthy := map[string]bool{}
	for _, e := range h.ViewEntries(controlplane.TopicHealth) {
		unhealthy[e.Key] = true
	}
	for _, l := range w.Net.Links {
		if got, want := unhealthy[l.Name()], w.Inj.Observable(l.ID) != faults.Healthy; got != want {
			t.Fatalf("view disagrees with injector for %s: in view %v, unhealthy %v", l.Name(), got, want)
		}
	}
}

// Every bus event becomes exactly one transient frame, delivered in bus
// order to an attached subscriber, whose text is the event's EventText;
// the decision log prints that same text.
func TestFeedEventFramesMatchBus(t *testing.T) {
	c, err := NewCluster(
		WithSeed(42), WithLevel(L4), WithRobots(), WithTechnicians(2),
		WithFaultAcceleration(30),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Deep queue: a 10-day batch publishes hundreds of events in one Sync,
	// and this test asserts lossless delivery.
	h := controlplane.NewHub(controlplane.Config{QueueCap: 16384, Retain: 16384})
	f := c.FeedControlPlane(h)
	type row struct {
		BusSeq uint64 `json:"bus_seq"`
		Text   string `json:"text"`
	}
	var tapped []row
	c.TapEvents(func(ev Event) { tapped = append(tapped, row{ev.Seq, EventText(ev)}) })

	att, err := h.Attach(controlplane.AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Detach(att)

	c.Run(10 * Day)
	f.Sync()

	var got []row
	var decisions []string // journal.decision frames as decision-log lines
	for {
		frames, _ := att.Take(64)
		if len(frames) == 0 {
			break
		}
		for _, fr := range frames {
			if fr.Key != "" {
				continue // keyed state frames
			}
			var p row
			if err := json.Unmarshal(fr.Data, &p); err != nil {
				t.Fatalf("event payload: %v\n%s", err, fr.Data)
			}
			got = append(got, p)
			if fr.Topic == controlplane.Topic(TopicDecision) {
				decisions = append(decisions, "["+fr.At.String()+"] "+p.Text)
			}
		}
	}
	if len(tapped) == 0 {
		t.Fatal("no bus events in 10 days; raise acceleration")
	}
	if len(got) != len(tapped) {
		t.Fatalf("subscriber saw %d event frames, bus published %d", len(got), len(tapped))
	}
	for i := range got {
		if got[i] != tapped[i] {
			t.Fatalf("event %d: frame %+v, tap %+v", i, got[i], tapped[i])
		}
	}
	// The decision log prints the same text as the stream's decision frames.
	log := c.DecisionLog(0)
	if len(log) == 0 || len(log) > len(decisions) {
		t.Fatalf("decision log has %d lines, stream %d decisions", len(log), len(decisions))
	}
	for i, line := range log {
		if want := decisions[len(decisions)-len(log)+i]; line != want {
			t.Fatalf("decision log line %d = %q, stream says %q", i, line, want)
		}
	}
}

// A fed cluster with live subscribers produces byte-identical results to a
// bare one: watchers are observability, never a results knob.
func TestFeedDoesNotPerturbRun(t *testing.T) {
	run := func(feed bool) string {
		c, err := NewCluster(
			WithSeed(7), WithLevel(L4), WithRobots(), WithTechnicians(2),
			WithFaultAcceleration(30),
		)
		if err != nil {
			t.Fatal(err)
		}
		var f *Feed
		if feed {
			h := controlplane.NewHub(controlplane.Config{QueueCap: 4}) // tiny: force drops
			f = c.FeedControlPlane(h)
			for i := 0; i < 8; i++ {
				att, err := h.Attach(controlplane.AttachOptions{Client: "w" + strconv.Itoa(i)})
				if err != nil {
					t.Fatal(err)
				}
				defer h.Detach(att)
			}
		}
		for i := 0; i < 30; i++ {
			c.Run(Day)
			if feed {
				f.Sync()
			}
		}
		return c.Report().String()
	}
	bare, fed := run(false), run(true)
	if bare != fed {
		t.Fatalf("feed perturbed the run:\nbare: %s\nfed:  %s", bare, fed)
	}
}

// Close detaches the feed: no frames are published afterwards.
func TestFeedClose(t *testing.T) {
	c, h, f := feedCluster(t)
	f.Close()
	seq := h.Seq()
	c.Run(5 * Day)
	f.Sync()
	if h.Seq() != seq+1 { // Sync still publishes one final status frame
		t.Fatalf("closed feed advanced hub seq %d -> %d", seq, h.Seq())
	}
	if len(f.pending) != 0 {
		t.Fatalf("closed feed kept buffering: %d callbacks", len(f.pending))
	}
}

// One Sync over several days publishes health transitions and bus events
// interleaved as they happened: the delta frames' virtual times never
// decrease, so a watcher reads the stream in order without re-sorting.
func TestFeedSyncPublishesInTimeOrder(t *testing.T) {
	c, err := NewCluster(
		WithSeed(42), WithLevel(L4), WithRobots(), WithTechnicians(2),
		WithFaultAcceleration(30),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Deep queue: the test reads every frame of a 5-day Sync.
	h := controlplane.NewHub(controlplane.Config{QueueCap: 16384, Retain: 16384})
	f := c.FeedControlPlane(h)
	att, err := h.Attach(controlplane.AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Detach(att)
	c.Run(5 * Day)
	f.Sync()

	var health, events int
	var prev *controlplane.Frame
	for {
		frames, _ := att.Take(64)
		if len(frames) == 0 {
			break
		}
		for _, fr := range frames {
			switch {
			case fr.Topic == controlplane.TopicHealth:
				health++
			case fr.Key == "":
				events++
			}
			if prev != nil && fr.At < prev.At {
				t.Fatalf("frame %d (%s) at %s follows frame %d (%s) at %s",
					fr.Seq, fr.Topic, fr.At, prev.Seq, prev.Topic, prev.At)
			}
			prev = fr
		}
	}
	if health == 0 || events == 0 {
		t.Fatalf("5 days published %d health and %d event frames; raise acceleration", health, events)
	}
}
