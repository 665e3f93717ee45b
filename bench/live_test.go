package main

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
)

// TestUnaccountedMatchesHubBackpressure pins the live-watch check against
// the hub: a watcher that falls far behind loses frames to drop-oldest and
// coalescing, yet every offered frame is delivered or counted.
func TestUnaccountedMatchesHubBackpressure(t *testing.T) {
	h := controlplane.NewHub(controlplane.Config{QueueCap: 8})
	att, err := h.Attach(controlplane.AttachOptions{Client: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	var shed backpressure
	take := func() {
		frames, drops := att.Take(8)
		got += uint64(len(frames))
		if drops != nil {
			shed = readBackpressure(drops)
		}
	}
	for i := 0; i < 50; i++ {
		h.Publish(controlplane.TopicStatus, "status", false, 0, []byte(`{}`))
		h.Publish(controlplane.TopicHealth, fmt.Sprint("link", i%3), false, 0, []byte(`{}`))
		h.Publish("bus.event", "", false, 0, []byte(`{}`))
		if i%20 == 19 {
			take()
		}
	}
	take()
	if shed.Dropped == 0 || shed.Coalesced == 0 {
		t.Fatalf("backpressure %+v: want both drops and coalescing", shed)
	}
	if n := unaccounted(h.Seq()-att.Seq, got, shed); n != 0 {
		t.Fatalf("%d frames unaccounted: got %d, %+v, offered %d", n, got, shed, h.Seq()-att.Seq)
	}
	if n := unaccounted(h.Seq()-att.Seq, got-1, shed); n != 1 {
		t.Fatalf("a lost frame reads as %d unaccounted, want 1", n)
	}
}
