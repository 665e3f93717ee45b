package controlplane

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

func pub(h *Hub, t Topic, key string, payload string) *Frame {
	return h.Publish(t, key, false, sim.Hour, []byte(payload))
}

func drainAll(h *Hub, a *Attachment) []*Frame {
	var out []*Frame
	for {
		frames, _ := h.take(a.c, nil, 1024)
		if len(frames) == 0 {
			return out
		}
		out = append(out, frames...)
	}
}

func TestQueuePolicyDropOldest(t *testing.T) {
	h := NewHub(Config{QueueCap: 4})
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pub(h, "ev", "", fmt.Sprintf(`{"i":%d}`, i))
	}
	frames := drainAll(h, a)
	if len(frames) != 4 {
		t.Fatalf("queue cap 4 delivered %d frames", len(frames))
	}
	// Oldest dropped: the survivors are the newest four, in order.
	for i, f := range frames {
		if want := uint64(7 + i); f.Seq != want {
			t.Fatalf("frame %d seq = %d, want %d", i, f.Seq, want)
		}
	}
	st := h.Stats()
	if st.Dropped != 6 || st.Coalesced != 0 {
		t.Fatalf("stats dropped=%d coalesced=%d, want 6, 0", st.Dropped, st.Coalesced)
	}
	dropped, _ := h.DropsByTopic()
	if dropped["ev"] != 6 {
		t.Fatalf("per-topic drops = %v, want ev:6", dropped)
	}
}

func TestQueuePolicyCoalesceByKey(t *testing.T) {
	h := NewHub(Config{QueueCap: 8})
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pub(h, TopicStatus, "status", fmt.Sprintf(`{"v":%d}`, i))
	}
	pub(h, TopicHealth, "linkA", `{"h":"down"}`)
	frames := drainAll(h, a)
	// Only the newest status survives, plus the health frame.
	if len(frames) != 2 {
		t.Fatalf("coalescing delivered %d frames, want 2: %v", len(frames), frames)
	}
	if string(frames[0].Data) != `{"v":4}` || frames[0].Topic != TopicStatus {
		t.Fatalf("surviving status frame = %s %s", frames[0].Topic, frames[0].Data)
	}
	if frames[1].Topic != TopicHealth {
		t.Fatalf("second frame topic = %s, want cp.health", frames[1].Topic)
	}
	if st := h.Stats(); st.Coalesced != 4 || st.Dropped != 0 {
		t.Fatalf("stats coalesced=%d dropped=%d, want 4, 0", st.Coalesced, st.Dropped)
	}
}

// TestCoalesceHolesAreNotDrops pins the hole semantics: a slot vacated by
// coalescing must not count as a drop when it reaches the head.
func TestCoalesceHolesAreNotDrops(t *testing.T) {
	h := NewHub(Config{QueueCap: 3})
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	pub(h, TopicStatus, "status", `{"v":0}`) // slot 0, becomes a hole
	pub(h, "ev", "", `{"i":1}`)              // slot 1
	pub(h, TopicStatus, "status", `{"v":1}`) // coalesces slot 0, fills slot 2
	pub(h, "ev", "", `{"i":2}`)              // queue full: head slot is the hole — free
	frames := drainAll(h, a)
	if len(frames) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(frames))
	}
	if st := h.Stats(); st.Dropped != 0 || st.Coalesced != 1 {
		t.Fatalf("stats dropped=%d coalesced=%d, want 0, 1", st.Dropped, st.Coalesced)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Seq <= frames[i-1].Seq {
			t.Fatalf("stream not seq-monotonic: %d then %d", frames[i-1].Seq, frames[i].Seq)
		}
	}
}

func TestSnapshotMaterializesLatestKeyedState(t *testing.T) {
	h := NewHub(Config{})
	pub(h, TopicStatus, "status", `{"v":1}`)
	pub(h, TopicHealth, "linkA", `{"h":"flapping"}`)
	pub(h, TopicHealth, "linkB", `{"h":"down"}`)
	pub(h, TopicStatus, "status", `{"v":2}`)
	h.Publish(TopicHealth, "linkA", true, sim.Hour, nil) // linkA recovered
	pub(h, "ev", "", `{"transient":true}`)               // unkeyed: not in view

	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Seq   uint64                               `json:"seq"`
		State map[string]map[string]map[string]any `json:"state"`
	}
	if err := json.Unmarshal(a.Snapshot, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, a.Snapshot)
	}
	if snap.Seq != 6 {
		t.Fatalf("snapshot seq = %d, want 6", snap.Seq)
	}
	if v := snap.State["cp.status"]["status"]["v"]; v != float64(2) {
		t.Fatalf("status in snapshot = %v, want latest (v=2)", snap.State["cp.status"])
	}
	if _, there := snap.State["cp.health"]["linkA"]; there {
		t.Fatalf("tombstoned linkA still in snapshot: %v", snap.State["cp.health"])
	}
	if h := snap.State["cp.health"]["linkB"]["h"]; h != "down" {
		t.Fatalf("linkB health = %v, want down", h)
	}
	if _, there := snap.State["ev"]; there {
		t.Fatal("unkeyed topic leaked into the snapshot view")
	}
	if got := h.ViewPayload(TopicStatus, "status"); string(got) != `{"v":2}` {
		t.Fatalf("ViewPayload = %s, want latest status", got)
	}
	if entries := h.ViewEntries(TopicHealth); len(entries) != 1 || entries[0].Key != "linkB" {
		t.Fatalf("ViewEntries(health) = %v, want [linkB]", entries)
	}
}

// TestSnapshotThenDeltaGapless is the core sync invariant: a subscriber
// gets a snapshot consistent at S, then every frame from S+1 on, even when
// the cached snapshot predates recent unkeyed traffic.
func TestSnapshotThenDeltaGapless(t *testing.T) {
	h := NewHub(Config{})
	pub(h, TopicStatus, "status", `{"v":1}`) // seq 1: builds view
	first, err := h.Attach(AttachOptions{Client: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	h.Detach(first) // forces the snapshot cache to be built at seq 1

	// Unkeyed events do not invalidate the cache...
	pub(h, "ev", "", `{"i":1}`) // seq 2
	pub(h, "ev", "", `{"i":2}`) // seq 3

	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	// ...so the second subscriber gets the cached snapshot at seq 1 and
	// must be seeded with the two events published since.
	if a.Seq != 1 {
		t.Fatalf("attachment base seq = %d, want cached snapshot at 1", a.Seq)
	}
	pub(h, "ev", "", `{"i":3}`) // seq 4, live
	frames := drainAll(h, a)
	if len(frames) != 3 {
		t.Fatalf("got %d deltas, want 3 (2 replayed + 1 live)", len(frames))
	}
	for i, f := range frames {
		if want := a.Seq + 1 + uint64(i); f.Seq != want {
			t.Fatalf("delta %d seq = %d, want %d (gapless from snapshot)", i, f.Seq, want)
		}
	}
}

func TestResumeWithinRetention(t *testing.T) {
	h := NewHub(Config{})
	pub(h, TopicStatus, "status", `{"v":1}`)
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	frames := drainAll(h, a)
	_ = frames
	h.Detach(a)
	// Missed while away:
	pub(h, "ev", "", `{"i":1}`)
	pub(h, TopicStatus, "status", `{"v":2}`)

	b, err := h.Attach(AttachOptions{Client: "t", Resume: a.Session, Last: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Resumed || b.Snapshot != nil {
		t.Fatalf("resume within retention: Resumed=%v Snapshot=%v, want replay", b.Resumed, b.Snapshot != nil)
	}
	if b.Session != a.Session {
		t.Fatalf("resumed session id = %s, want %s", b.Session, a.Session)
	}
	replayed := drainAll(h, b)
	if len(replayed) != 2 || replayed[0].Seq != 2 || replayed[1].Seq != 3 {
		t.Fatalf("replayed %v, want seqs [2 3]", replayed)
	}
}

func TestResumeFallsBackToSnapshotWhenOverrun(t *testing.T) {
	h := NewHub(Config{Retain: 4})
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	h.Detach(a)
	for i := 0; i < 10; i++ {
		pub(h, "ev", "", fmt.Sprintf(`{"i":%d}`, i))
	}
	// Frames 1..6 have left the 4-deep ring; last=2 is unreachable.
	b, err := h.Attach(AttachOptions{Client: "t", Resume: a.Session, Last: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Resumed {
		t.Fatal("resume beyond retention must fall back to snapshot")
	}
	if b.Snapshot == nil {
		t.Fatal("fallback attachment has no snapshot")
	}
	if b.Seq != 10 {
		t.Fatalf("fallback snapshot seq = %d, want 10 (fresh)", b.Seq)
	}
	if got := drainAll(h, b); len(got) != 0 {
		t.Fatalf("fallback queued %d stale frames, want 0", len(got))
	}
}

// Events serves the retained unkeyed frames oldest first, as the delta
// objects the stream sends: nothing on an empty hub, the event frames of a
// partly filled or exactly full ring, and after the ring wraps only the
// event frames still retained. Keyed cp.* frames never appear, and a topic
// selects only its own frames.
func TestEventsViewRetainedUnkeyedFrames(t *testing.T) {
	h := NewHub(Config{Retain: 4})
	events := func(topic Topic) []uint64 {
		t.Helper()
		var rows []struct {
			Seq     uint64          `json:"seq"`
			At      string          `json:"at"`
			Topic   Topic           `json:"topic"`
			Key     string          `json:"key"`
			Payload json.RawMessage `json:"payload"`
		}
		raw := h.Events(topic)
		if err := json.Unmarshal(raw, &rows); err != nil || rows == nil {
			t.Fatalf("Events(%q) = %s: not a JSON array (%v)", topic, raw, err)
		}
		seqs := []uint64{}
		for _, r := range rows {
			if (topic != "" && r.Topic != topic) || r.Key != "" || r.At != sim.Hour.String() {
				t.Fatalf("row %+v: want an unkeyed %q frame at %v", r, topic, sim.Hour)
			}
			if want := fmt.Sprintf(`{"i":%d}`, r.Seq); string(r.Payload) != want {
				t.Fatalf("row %d payload = %s, want %s", r.Seq, r.Payload, want)
			}
			seqs = append(seqs, r.Seq)
		}
		return seqs
	}
	evOn := func(topic Topic) { pub(h, topic, "", fmt.Sprintf(`{"i":%d}`, h.Seq()+1)) }
	ev := func() { evOn("ev") }

	if got := string(h.Events("")); got != "[]" {
		t.Fatalf("empty hub Events() = %s, want []", got)
	}
	ev()                                     // 1
	pub(h, TopicStatus, "status", `{"v":1}`) // 2
	ev()                                     // 3
	if got := events(""); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("partly filled ring serves seqs %v, want [1 3]", got)
	}
	ev() // 4
	if got := events(""); fmt.Sprint(got) != "[1 3 4]" {
		t.Fatalf("exactly full ring serves seqs %v, want [1 3 4]", got)
	}
	pub(h, TopicHealth, "linkA", `{"h":"down"}`) // 5
	ev()                                         // 6
	if got := events(""); fmt.Sprint(got) != "[3 4 6]" {
		t.Fatalf("wrapped ring serves seqs %v, want [3 4 6] (frames 3..6 retained)", got)
	}
	evOn("other") // 7
	for _, tc := range []struct {
		topic Topic
		want  string
	}{{"", "[4 6 7]"}, {"ev", "[4 6]"}, {"other", "[7]"}, {"none", "[]"}} {
		if got := events(tc.topic); fmt.Sprint(got) != tc.want {
			t.Fatalf("Events(%q) serves seqs %v, want %s (frames 4..7 retained)", tc.topic, got, tc.want)
		}
	}
}

func TestResumeUnknownTokenStartsFreshSession(t *testing.T) {
	h := NewHub(Config{})
	pub(h, TopicStatus, "status", `{"v":1}`)
	a, err := h.Attach(AttachOptions{Client: "t", Resume: "s999", Last: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Resumed {
		t.Fatal("unknown token must not resume")
	}
	if a.Session == "s999" {
		t.Fatal("unknown token must be replaced with a fresh session id")
	}
}

func TestResumeBusySessionRejected(t *testing.T) {
	h := NewHub(Config{})
	a, err := h.Attach(AttachOptions{Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Attach(AttachOptions{Client: "t2", Resume: a.Session}); err != ErrSessionBusy {
		t.Fatalf("second attach on a live session: err = %v, want ErrSessionBusy", err)
	}
}

func TestTopicFilter(t *testing.T) {
	h := NewHub(Config{})
	a, err := h.Attach(AttachOptions{Client: "t", Topics: []Topic{"sense.alert"}})
	if err != nil {
		t.Fatal(err)
	}
	pub(h, "sense.alert", "", `{"a":1}`)
	pub(h, "journal.decision", "", `{"d":1}`)
	pub(h, "sense.alert", "", `{"a":2}`)
	frames := drainAll(h, a)
	if len(frames) != 2 {
		t.Fatalf("filtered stream delivered %d frames, want 2", len(frames))
	}
	for _, f := range frames {
		if f.Topic != "sense.alert" {
			t.Fatalf("filter leaked topic %s", f.Topic)
		}
	}
}

func TestSessionEvictionLRU(t *testing.T) {
	h := NewHub(Config{MaxSessions: 2})
	a1, _ := h.Attach(AttachOptions{Client: "a"})
	h.Detach(a1)
	a2, _ := h.Attach(AttachOptions{Client: "b"})
	h.Detach(a2)
	// Third session evicts the least recently used detached one (a1).
	a3, _ := h.Attach(AttachOptions{Client: "c"})
	if got := len(h.Sessions()); got != 2 {
		t.Fatalf("session registry holds %d, want 2", got)
	}
	if r, _ := h.Attach(AttachOptions{Client: "a", Resume: a1.Session, Last: 0}); r.Session == a1.Session {
		t.Fatal("evicted session resumed instead of falling back")
	}
	_ = a3
}

// TestPublisherNeverBlocksOnSlowClient is the backpressure contract: with
// one client never draining, publishing must complete and fast clients
// must see everything.
func TestPublisherNeverBlocksOnSlowClient(t *testing.T) {
	h := NewHub(Config{QueueCap: 8})
	slow, err := h.Attach(AttachOptions{Client: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := h.Attach(AttachOptions{Client: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	var got []*Frame
	for i := 0; i < 1000; i++ {
		pub(h, "ev", "", fmt.Sprintf(`{"i":%d}`, i))
		got = append(got, drainAll(h, fast)...) // fast client keeps up
	}
	if len(got) != 1000 {
		t.Fatalf("fast client received %d/1000 frames", len(got))
	}
	frames, rep := h.take(slow.c, nil, 10000)
	if len(frames) != 8 {
		t.Fatalf("slow client queue delivered %d frames, want cap 8", len(frames))
	}
	if rep == nil {
		t.Fatal("slow client got no in-band drops report")
	}
	var drops struct {
		Dropped   uint64                       `json:"dropped"`
		ByTopic   map[string]map[string]uint64 `json:"by_topic"`
		Coalesced uint64                       `json:"coalesced"`
	}
	if err := json.Unmarshal(rep, &drops); err != nil {
		t.Fatalf("drops report is not JSON: %v\n%s", err, rep)
	}
	if drops.Dropped != 992 || drops.ByTopic["ev"]["dropped"] != 992 {
		t.Fatalf("drops report = %s, want 992 on topic ev", rep)
	}
}

// TestConcurrentPublishSubscribe runs a publisher against churning
// subscribers under the race detector and asserts the per-client stream
// invariant: with queues deep enough that nothing drops (and only unkeyed
// frames, so nothing coalesces), every subscriber sees a gapless strictly
// ascending sequence starting at its attachment base + 1.
func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(Config{QueueCap: 4096})
	const total = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			pub(h, "ev", "", `{}`)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, err := h.Attach(AttachOptions{Client: fmt.Sprintf("w%d", w)})
			if err != nil {
				errs <- err
				return
			}
			defer h.Detach(a)
			last := a.Seq
			verify := func(frames []*Frame) bool {
				for _, f := range frames {
					if f.Seq != last+1 {
						errs <- fmt.Errorf("w%d: gap %d -> %d with no drops possible at cap 4096", w, last, f.Seq)
						return false
					}
					last = f.Seq
				}
				return true
			}
			for {
				frames, _ := h.take(a.c, nil, 64)
				if !verify(frames) {
					return
				}
				if len(frames) == 0 {
					select {
					case <-a.c.wake:
					case <-done:
						// Publisher finished: one final drain settles it.
						frames, _ = h.take(a.c, nil, total+1)
						verify(frames)
						return
					}
				}
			}
		}(w)
	}
	// An /events reader beside the stream readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if b := h.Events(""); !json.Valid(b) {
				errs <- fmt.Errorf("Events() during publishing is not JSON: %.80s", b)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := h.Stats(); st.Dropped != 0 || st.Coalesced != 0 {
		t.Fatalf("deep unkeyed queues still dropped %d / coalesced %d frames", st.Dropped, st.Coalesced)
	}
}
