package controlplane

import (
	"errors"
	"strconv"
	"sync"

	"repro/internal/detsort"
	"repro/internal/sim"
)

// Config bounds a hub. The zero value selects the defaults.
type Config struct {
	// QueueCap bounds each client's send queue (frames). Default 256.
	QueueCap int
	// Retain is how many recent frames the hub keeps for resume. Default
	// 4096.
	Retain int
	// MaxSessions bounds the session registry; beyond it the least
	// recently used detached session is evicted (its resume token then
	// falls back to a fresh snapshot). Default 16384.
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Retain <= 0 {
		c.Retain = 4096
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16384
	}
	return c
}

// session is the durable half of a subscription: it survives disconnects
// so a watcher can resume. Sessions are tiny on purpose — the send queue
// dies with the connection; only the identity and progress marker persist.
type session struct {
	id       string
	client   string // client-chosen name, informational
	lastSeq  uint64 // last sequence handed to the stream writer
	lastUse  uint64 // hub op counter, for LRU eviction
	attached bool
}

// client is one live stream attachment.
type client struct {
	sess   *session
	topics map[Topic]bool // nil = all topics
	q      queue
	wake   chan struct{}

	// Backpressure accounting, cumulative for the connection.
	dropped     uint64
	coalesced   uint64
	droppedBy   map[Topic]uint64
	coalescedBy map[Topic]uint64
	// reported is dropped+coalesced as of the last in-band drops frame;
	// the writer emits a new one whenever the sum has advanced.
	reported uint64
}

func (c *client) wants(t Topic) bool { return c.topics == nil || c.topics[t] }

// ErrSessionBusy is returned by Attach when the resume token names a
// session that already has a live stream.
var ErrSessionBusy = errors.New("controlplane: session already attached")

// Hub fans frames out from one publisher (the simulation thread) to many
// subscriber goroutines. One mutex guards all hub state; no operation
// under it blocks, so the publisher is never at the mercy of a slow
// watcher.
type Hub struct {
	mu  sync.Mutex
	cfg Config

	//selfmaint:guardedby mu
	seq uint64
	// view is the materialized keyed state: topic → key → newest frame.
	//selfmaint:guardedby mu
	view map[Topic]map[string]*Frame
	// ring retains the last cfg.Retain frames for resume; frame seq s
	// lives at ring[(s-1) % len(ring)].
	//selfmaint:guardedby mu
	ring []*Frame
	//selfmaint:guardedby mu
	clients []*client
	//selfmaint:guardedby mu
	sessions map[string]*session
	//selfmaint:guardedby mu
	sessSeq uint64
	//selfmaint:guardedby mu
	op uint64

	// snapCache is the lazily rebuilt encoded snapshot, invalidated by any
	// keyed publish. snapSeq is the sequence it is consistent at.
	//selfmaint:guardedby mu
	snapCache []byte
	//selfmaint:guardedby mu
	snapSeq uint64
	//selfmaint:guardedby mu
	snapValid bool

	//selfmaint:guardedby mu
	published uint64
	//selfmaint:guardedby mu
	dropped uint64
	//selfmaint:guardedby mu
	coalesced uint64
	//selfmaint:guardedby mu
	droppedBy map[Topic]uint64
	//selfmaint:guardedby mu
	coalescedBy map[Topic]uint64
}

// NewHub creates an empty hub.
func NewHub(cfg Config) *Hub {
	return &Hub{
		cfg:         cfg.withDefaults(),
		view:        make(map[Topic]map[string]*Frame),
		ring:        make([]*Frame, cfg.withDefaults().Retain),
		sessions:    make(map[string]*session),
		droppedBy:   make(map[Topic]uint64),
		coalescedBy: make(map[Topic]uint64),
	}
}

// Publish stamps a frame with the next hub sequence number, folds keyed
// frames into the materialized view, retains it for resume, and offers it
// to every subscribed client. It never blocks: full client queues drop
// their oldest frame (counted) and keyed frames coalesce. data must not be
// mutated after the call; tombstones (del) clear key from the view.
func (h *Hub) Publish(t Topic, key string, del bool, at sim.Time, data []byte) *Frame {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	f := &Frame{Seq: h.seq, At: at, Topic: t, Key: key, Delete: del, Data: data}
	f.renderWire()
	h.ring[(f.Seq-1)%uint64(len(h.ring))] = f
	if key != "" {
		m := h.view[t]
		if m == nil {
			m = make(map[string]*Frame)
			h.view[t] = m
		}
		if del {
			delete(m, key)
		} else {
			m[key] = f
		}
		h.snapValid = false
	}
	h.published++
	for _, c := range h.clients {
		if c.wants(t) {
			h.offerLocked(c, f)
		}
	}
	return f
}

// offerLocked enqueues f on one client under the backpressure policy.
func (h *Hub) offerLocked(c *client, f *Frame) {
	if f.Key != "" && c.q.coalesce(f.Topic, f.Key) {
		c.coalesced++
		c.coalescedBy[f.Topic]++
		h.coalesced++
		h.coalescedBy[f.Topic]++
	}
	if c.q.full() {
		if old, _ := c.q.pop(); old != nil {
			c.dropped++
			c.droppedBy[old.Topic]++
			h.dropped++
			h.droppedBy[old.Topic]++
		}
	}
	c.q.push(f)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// AttachOptions parameterize a stream attachment.
type AttachOptions struct {
	// Client is the client-chosen name carried in the session registry.
	Client string
	// Topics filters the delta stream; nil or empty subscribes to all
	// topics. The snapshot always carries the full keyed state.
	Topics []Topic
	// Resume is a session token from a previous hello frame; empty starts
	// a new session.
	Resume string
	// Last is the sequence number of the last frame the client processed,
	// meaningful only with Resume.
	Last uint64
}

// Attachment is a live subscription plus everything the handshake frames
// need.
type Attachment struct {
	c *client
	h *Hub
	// Session is the session id, which doubles as the resume token.
	Session string
	// Seq is the base sequence: the snapshot's consistency point, or the
	// resume point. Deltas continue from Seq+1.
	Seq uint64
	// Resumed reports that the hub replayed deltas instead of snapshotting.
	Resumed bool
	// Snapshot is the encoded state snapshot; nil when Resumed.
	Snapshot []byte
}

// Attach opens a subscription. New sessions (and resume tokens the hub no
// longer recognizes, or whose resume point has left the retention ring)
// get a consistent snapshot at Attachment.Seq with deltas queued from
// Seq+1; recognized tokens within retention get their missed frames
// replayed instead, subject to the same queue policy as live delivery.
func (h *Hub) Attach(o AttachOptions) (*Attachment, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.op++

	var topics map[Topic]bool
	if len(o.Topics) > 0 {
		topics = make(map[Topic]bool, len(o.Topics))
		for _, t := range o.Topics {
			topics[t] = true
		}
	}

	sess := h.sessions[o.Resume]
	resumable := false
	if o.Resume != "" && sess != nil {
		if sess.attached {
			return nil, ErrSessionBusy
		}
		// Resume needs every frame in (Last, seq] still retained.
		resumable = o.Last <= h.seq && h.coversLocked(o.Last+1)
	}
	if sess == nil {
		h.evictSessionsLocked()
		h.sessSeq++
		sess = &session{id: "s" + strconv.FormatUint(h.sessSeq, 10)}
		h.sessions[sess.id] = sess
	}
	sess.client = o.Client
	sess.lastUse = h.op
	sess.attached = true

	c := &client{
		sess: sess, topics: topics, q: newQueue(h.cfg.QueueCap),
		wake:        make(chan struct{}, 1),
		droppedBy:   make(map[Topic]uint64),
		coalescedBy: make(map[Topic]uint64),
	}
	att := &Attachment{c: c, h: h, Session: sess.id}
	if resumable {
		att.Resumed = true
		att.Seq = o.Last
		h.replayLocked(c, o.Last)
	} else {
		att.Snapshot = h.snapshotLocked()
		att.Seq = h.snapSeq
		// Unkeyed frames published since the cached snapshot was built are
		// not in it; replay them so the stream is gapless from snapSeq+1.
		h.replayLocked(c, h.snapSeq)
	}
	sess.lastSeq = att.Seq
	h.clients = append(h.clients, c)
	return att, nil
}

// Take drains up to max pending frames, advancing the session's resume
// cursor past them. Frames come back in sequence order; drops is a
// rendered backpressure report when the drop/coalesce counters advanced
// since the last report, nil otherwise. It is the in-process form of the
// stream writer's drain, for tests and load harnesses; poll it or select
// on Wake.
func (a *Attachment) Take(max int) (frames []*Frame, drops []byte) {
	return a.h.take(a.c, nil, max)
}

// coversLocked reports whether frame sequence s is still in the retention
// ring.
func (h *Hub) coversLocked(s uint64) bool {
	return s > h.seq || s >= h.oldestLocked()
}

// oldestLocked is the sequence of the oldest retained frame (h.seq+1 when
// nothing has been published).
func (h *Hub) oldestLocked() uint64 {
	if h.seq > uint64(len(h.ring)) {
		return h.seq - uint64(len(h.ring)) + 1
	}
	return 1
}

// Events returns the retained unkeyed frames (the transient event stream)
// on topic, or on every topic when topic is empty, as a JSON array of the
// delta objects the stream endpoint sends, oldest first: exactly the
// window a resuming watcher can still replay. An empty window is "[]",
// never null.
func (h *Hub) Events(topic Topic) []byte {
	h.mu.Lock()
	var frames []*Frame
	for s := h.oldestLocked(); s <= h.seq; s++ {
		if f := h.ring[(s-1)%uint64(len(h.ring))]; f.Key == "" && (topic == "" || f.Topic == topic) {
			frames = append(frames, f)
		}
	}
	h.mu.Unlock()
	// Published frames are immutable, so their wire bytes are read unlocked.
	n := 2
	for _, f := range frames {
		n += len(f.wire) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, f := range frames {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.wire...)
	}
	return append(b, ']')
}

// replayLocked seeds c's queue with the retained frames in (after, seq]
// matching its topic filter. The caller has verified coverage.
func (h *Hub) replayLocked(c *client, after uint64) {
	for s := after + 1; s <= h.seq; s++ {
		f := h.ring[(s-1)%uint64(len(h.ring))]
		if f != nil && c.wants(f.Topic) {
			h.offerLocked(c, f)
		}
	}
}

// snapshotLocked returns the encoded snapshot, rebuilding the cache if any
// keyed state changed since it was last rendered — or if frames older than
// the cache have already left the retention ring, which would leave a gap
// between the cached snapshot and the live stream.
func (h *Hub) snapshotLocked() []byte {
	if h.snapValid && h.coversLocked(h.snapSeq+1) {
		return h.snapCache
	}
	b := make([]byte, 0, 4096)
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, h.seq, 10)
	b = append(b, `,"state":{`...)
	for i, t := range detsort.KeysInto(make([]Topic, 0, len(h.view)), h.view) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, string(t))
		b = append(b, ':', '{')
		m := h.view[t]
		for j, k := range detsort.Keys(m) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, k)
			b = append(b, ':')
			b = append(b, m[k].Data...)
		}
		b = append(b, '}')
	}
	b = append(b, '}', '}')
	h.snapCache = b
	h.snapSeq = h.seq
	h.snapValid = true
	return b
}

// evictSessionsLocked makes room in the session registry by evicting the
// least recently used detached sessions. Attached sessions are never
// evicted.
func (h *Hub) evictSessionsLocked() {
	for len(h.sessions) >= h.cfg.MaxSessions {
		var victim *session
		//lint:allow mapiter LRU scan selects the unique minimum lastUse; map order cannot change the result
		for _, s := range h.sessions {
			if s.attached {
				continue
			}
			if victim == nil || s.lastUse < victim.lastUse {
				victim = s
			}
		}
		if victim == nil {
			return // every session is live; the registry grows past the cap
		}
		delete(h.sessions, victim.id)
	}
}

// Detach closes the attachment's live half. The session stays registered
// for resume.
func (h *Hub) Detach(a *Attachment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.op++
	a.c.sess.attached = false
	a.c.sess.lastUse = h.op
	for i, c := range h.clients {
		if c == a.c {
			last := len(h.clients) - 1
			h.clients[i] = h.clients[last]
			h.clients[last] = nil
			h.clients = h.clients[:last]
			break
		}
	}
}

// take drains up to max queued frames and, when the drop/coalesce
// counters advanced since the last report, an encoded in-band drops
// report. It advances the session's progress marker: the stream writer is
// about to put these frames on the wire, and a client that loses them to
// a dead connection re-acks via Last on resume.
func (h *Hub) take(c *client, dst []*Frame, max int) ([]*Frame, []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(dst) < max {
		f, ok := c.q.pop()
		if !ok {
			break
		}
		if f != nil {
			dst = append(dst, f)
		}
	}
	if len(dst) > 0 {
		c.sess.lastSeq = dst[len(dst)-1].Seq
	}
	var rep []byte
	if c.dropped+c.coalesced > c.reported {
		c.reported = c.dropped + c.coalesced
		rep = renderDrops(c)
	}
	return dst, rep
}

// renderDrops encodes a client's cumulative backpressure counters. Called
// with the hub lock held.
func renderDrops(c *client) []byte {
	b := make([]byte, 0, 128)
	b = append(b, `{"dropped":`...)
	b = strconv.AppendUint(b, c.dropped, 10)
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendUint(b, c.coalesced, 10)
	b = append(b, `,"by_topic":{`...)
	topics := make(map[Topic]bool, len(c.droppedBy)+len(c.coalescedBy))
	for t := range c.droppedBy {
		topics[t] = true
	}
	for t := range c.coalescedBy {
		topics[t] = true
	}
	for i, t := range detsort.Keys(topics) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, string(t))
		b = append(b, `:{"dropped":`...)
		b = strconv.AppendUint(b, c.droppedBy[t], 10)
		b = append(b, `,"coalesced":`...)
		b = strconv.AppendUint(b, c.coalescedBy[t], 10)
		b = append(b, '}')
	}
	b = append(b, '}', '}')
	return b
}

// Seq returns the hub's current sequence number.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// ViewPayload returns the newest payload for (topic, key), or nil. The
// returned bytes are shared and must not be mutated.
func (h *Hub) ViewPayload(t Topic, key string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f := h.view[t][key]; f != nil {
		return f.Data
	}
	return nil
}

// ViewEntry is one keyed state row.
type ViewEntry struct {
	Key  string
	Data []byte // shared, read-only
}

// ViewEntries returns the topic's materialized state sorted by key.
func (h *Hub) ViewEntries(t Topic) []ViewEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.view[t]
	out := make([]ViewEntry, 0, len(m))
	for _, k := range detsort.Keys(m) {
		out = append(out, ViewEntry{Key: k, Data: m[k].Data})
	}
	return out
}

// Stats is a point-in-time hub census.
type Stats struct {
	Clients   int    `json:"clients"`
	Sessions  int    `json:"sessions"`
	Seq       uint64 `json:"seq"`
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	Coalesced uint64 `json:"coalesced"`
	// Queued is the total frames sitting in client queues right now.
	Queued int `json:"queued"`
}

// Stats returns aggregate counters across all clients, live and past.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{
		Clients: len(h.clients), Sessions: len(h.sessions), Seq: h.seq,
		Published: h.published, Dropped: h.dropped, Coalesced: h.coalesced,
	}
	for _, c := range h.clients {
		st.Queued += c.q.n
	}
	return st
}

// DropsByTopic returns a copy of the per-topic drop and coalesce counters.
func (h *Hub) DropsByTopic() (dropped, coalesced map[Topic]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dropped = make(map[Topic]uint64, len(h.droppedBy))
	coalesced = make(map[Topic]uint64, len(h.coalescedBy))
	for t, n := range h.droppedBy {
		dropped[t] = n
	}
	for t, n := range h.coalescedBy {
		coalesced[t] = n
	}
	return dropped, coalesced
}

// SessionInfo describes one registered session.
type SessionInfo struct {
	ID       string `json:"id"`
	Client   string `json:"client,omitempty"`
	LastSeq  uint64 `json:"last_seq"`
	Attached bool   `json:"attached"`
}

// Sessions lists the registered sessions sorted by id.
func (h *Hub) Sessions() []SessionInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SessionInfo, 0, len(h.sessions))
	for _, id := range detsort.Keys(h.sessions) {
		s := h.sessions[id]
		out = append(out, SessionInfo{ID: s.id, Client: s.client, LastSeq: s.lastSeq, Attached: s.attached})
	}
	return out
}
