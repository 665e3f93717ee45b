// Package controlplane is the streaming control plane the selfmaintd
// daemon serves: a versioned API (protocol 1) that lets many concurrent
// watchers observe a live simulation without perturbing it.
//
// The design is snapshot-then-delta over a hub:
//
//   - The simulation side publishes Frames into a Hub. Keyed frames
//     ("cp.status", "cp.health", "cp.ticket") carry the latest state for
//     their key and fold into a materialized view; unkeyed frames (the bus
//     event topics) are transient. Every frame gets a hub-global sequence
//     number.
//   - A client handshake returns a session (id doubles as the resume
//     token), then a consistent snapshot of the view at sequence S, then
//     every subsequent frame ≥ S+1 matching its topic filter.
//   - Per-client send queues are bounded. The publisher NEVER blocks: when
//     a queue is full the oldest frame is dropped (counted per topic), and
//     keyed frames coalesce — a newer state frame replaces the queued one
//     for the same key. Drop/coalesce counts are reported to the client
//     in-band ("drops" frames) and in aggregate via Hub.Stats.
//   - A reconnect with resume=<token>&last=<seq> replays from the hub's
//     retained delta ring when it still covers last+1, and falls back to a
//     fresh snapshot otherwise.
//
// The hub is safe for one publisher (the simulation thread) and many
// concurrent subscriber goroutines. Nothing in this package reads the wall
// clock or feeds back into the simulation: watchers are observability,
// never a results knob.
package controlplane

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Proto is the protocol version served by this package. Clients that
// request a different version are rejected at the handshake.
const Proto = 1

// Topic names one frame stream. The simulation feed uses the bus topic
// names for event frames and the cp.* names below for keyed state.
type Topic string

// Keyed state topics published by the selfmaint feed. They materialize
// into the hub view that snapshots (and the daemon's /status, /health and
// /tickets endpoints) are served from.
const (
	// TopicStatus carries the run summary, coalesce key "status".
	TopicStatus Topic = "cp.status"
	// TopicHealth carries per-link health, coalesce key = link name; a
	// recovery publishes a tombstone that clears the key.
	TopicHealth Topic = "cp.health"
	// TopicTicket carries ticket rows, coalesce key = ticket id.
	TopicTicket Topic = "cp.ticket"
)

// Frame is one control-plane message. Frames are immutable once published
// and shared by pointer between all subscriber queues, so a frame costs
// one encoding no matter how many watchers receive it.
type Frame struct {
	// Seq is the hub-global sequence number, assigned at publish.
	Seq uint64
	// At is the virtual time of the underlying simulation change.
	At    sim.Time
	Topic Topic
	// Key is the coalesce key; empty for transient event frames. Frames
	// with equal (Topic, Key) supersede one another: only the newest
	// matters, which is what queue coalescing and the view exploit.
	Key string
	// Delete marks a tombstone: the key leaves the materialized view (and
	// the frame is delivered so subscribers can clear their copy).
	Delete bool
	// Data is the encoded JSON payload (nil for tombstones).
	Data []byte

	// wire is the cached SSE data line: the full delta object rendered
	// once at publish time, shared by every subscriber.
	wire []byte
}

// renderWire builds the delta JSON the stream writer sends:
//
//	{"seq":7,"at":"36h0m0s","topic":"cp.health","key":"...","delete":true,"payload":{...}}
//
// key/delete/payload are omitted when empty, so transient event frames
// stay compact.
func (f *Frame) renderWire() {
	b := make([]byte, 0, 64+len(f.Key)+len(f.Data))
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, f.Seq, 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendQuote(b, f.At.String())
	b = append(b, `,"topic":`...)
	b = strconv.AppendQuote(b, string(f.Topic))
	if f.Key != "" {
		b = append(b, `,"key":`...)
		b = strconv.AppendQuote(b, f.Key)
	}
	if f.Delete {
		b = append(b, `,"delete":true`...)
	}
	if len(f.Data) > 0 {
		b = append(b, `,"payload":`...)
		b = append(b, f.Data...)
	}
	b = append(b, '}')
	f.wire = b
}

// String renders the envelope for logs.
func (f *Frame) String() string {
	return fmt.Sprintf("#%d [%v] %s/%s", f.Seq, f.At, f.Topic, f.Key)
}
