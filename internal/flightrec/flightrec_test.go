package flightrec

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// genState holds the mirror state a generator keeps so it can predict the
// exact frame sequence the recorder will put on disk.
type genState struct {
	rng     *rand.Rand
	shards  int
	at      []sim.Time
	seq     []uint64
	epochAt sim.Time
	epoch   uint64

	rec      *Recorder
	pending  [][]Frame // mirror of the recorder's per-shard buffers
	expected []Frame
}

var strPool = []string{"", "leaf0:1<->spine0:3", "unit-3", "tech-1", "flap burst",
	"needs-human", "row 2 rack 7", "héllo wörld", "a\nb", strings.Repeat("x", 300)}

func (g *genState) str() string { return strPool[g.rng.IntN(len(strPool))] }

func (g *genState) payload() Payload {
	switch g.rng.IntN(12) {
	case 0:
		return &PAlert{Kind: uint8(g.rng.IntN(4)), Link: g.str(), At: sim.Time(g.rng.Int64N(1 << 40)), Detail: g.str()}
	case 1:
		return &PRequest{Link: g.str(), Predictive: g.rng.IntN(2) == 0}
	case 2:
		return &PTicket{Kind: uint8(g.rng.IntN(5)), ID: g.rng.IntN(100), Link: g.str(),
			Action: uint8(g.rng.IntN(6)), Reactive: g.rng.IntN(2) == 0}
	case 3:
		return &PDispatch{Ticket: g.rng.IntN(100), Link: g.str(), Actor: g.str(),
			Robot: g.rng.IntN(2) == 0, Action: uint8(g.rng.IntN(6)), End: uint8(g.rng.IntN(2))}
	case 4:
		return &POutcome{Ticket: g.rng.IntN(100), Link: g.str(), Actor: g.str(),
			Robot: g.rng.IntN(2) == 0, Action: uint8(g.rng.IntN(6)),
			Completed: g.rng.IntN(2) == 0, Fixed: g.rng.IntN(2) == 0, Note: g.str()}
	case 5:
		return &PWatchdog{Ticket: g.rng.IntN(100), Link: g.str(), Actor: g.str(),
			Robot: g.rng.IntN(2) == 0, Action: uint8(g.rng.IntN(6)),
			Deadline: sim.Time(g.rng.Int64N(1 << 40)), Attempt: g.rng.IntN(5),
			Backoff: sim.Time(g.rng.Int64N(1 << 40))}
	case 6:
		return &PDegraded{Ticket: g.rng.IntN(100), Link: g.str(), RobotFailures: g.rng.IntN(5)}
	case 7:
		return &PJournal{At: sim.Time(g.rng.Int64N(1 << 40)), Kind: uint8(g.rng.IntN(16)),
			Ticket: g.rng.IntN(12) - 1, Link: g.str(), Detail: g.str()}
	case 8:
		return &PFleetSummary{Region: g.rng.IntN(8), At: sim.Time(g.rng.Int64N(1 << 40)),
			Links: g.rng.IntN(1000), LinksDown: g.rng.IntN(10), OpenTickets: g.rng.IntN(20),
			Resolved: g.rng.IntN(500), RobotsIdle: g.rng.IntN(8), RobotsTotal: g.rng.IntN(16)}
	case 9:
		return &PFleetTicket{Region: g.rng.IntN(8), OpenedAt: sim.Time(g.rng.Int64N(1 << 40)),
			ClosedAt: sim.Time(g.rng.Int64N(2) * g.rng.Int64N(1<<40))}
	case 10:
		return &PTransfer{From: g.rng.IntN(8), To: g.rng.IntN(8),
			Granted: g.rng.IntN(2) == 0, Unit: g.str()}
	default:
		return &PGeneric{TypeName: "test.Blob", Text: g.str()}
	}
}

func (g *genState) kvs() []KV {
	n := g.rng.IntN(6)
	kvs := make([]KV, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if g.rng.IntN(2) == 0 {
			kvs = append(kvs, KInt(key, g.rng.Int64N(1<<50)-(1<<49)))
		} else {
			kvs = append(kvs, KFloat(key, (g.rng.Float64()-0.5)*1e9))
		}
	}
	return kvs
}

// add routes a frame the way the recorder does, mirroring the buffering so
// g.expected is the exact on-disk order.
func (g *genState) add(f Frame) {
	if g.shards == 1 {
		g.expected = append(g.expected, f)
		return
	}
	g.pending[f.Shard] = append(g.pending[f.Shard], f)
}

func (g *genState) barrier() {
	g.epochAt += sim.Time(g.rng.Int64N(1 << 30))
	g.epoch++
	for i := range g.pending {
		g.expected = append(g.expected, g.pending[i]...)
		g.pending[i] = nil
	}
	g.expected = append(g.expected, Frame{Kind: KindEpoch, Epoch: g.epoch, At: g.epochAt})
	g.rec.Barrier(g.epoch, g.epochAt)
}

func (g *genState) step() {
	shard := g.rng.IntN(g.shards)
	switch g.rng.IntN(10) {
	case 0:
		g.at[shard] += sim.Time(g.rng.Int64N(1 << 30))
		f := Frame{Kind: KindSnapshot, Shard: shard, At: g.at[shard],
			Snap: Snap{Avail: g.rng.Float64(), LinksDown: g.rng.IntN(10),
				OpenTix: g.rng.IntN(20), Fired: g.rng.Uint64N(1 << 40)}}
		g.add(f)
		g.rec.Snapshot(shard, f.At, f.Snap)
	case 1:
		f := Frame{Kind: KindState, Shard: shard, State: g.kvs()}
		g.add(f)
		g.rec.State(shard, f.State)
	case 2:
		if g.shards > 1 {
			g.barrier()
			return
		}
		fallthrough
	default:
		g.at[shard] += sim.Time(g.rng.Int64N(1 << 30))
		g.seq[shard] += g.rng.Uint64N(100)
		f := Frame{Kind: KindEvent, Shard: shard, At: g.at[shard], Seq: g.seq[shard],
			Topic:   []string{"sense.alert", "triage.ticket", "act.dispatch", "journal.decision"}[g.rng.IntN(4)],
			Payload: g.payload()}
		g.add(f)
		g.rec.add(f)
	}
}

// record generates one deterministic random recording and returns the
// bytes, the expected frame sequence, and the live summary.
func record(t *testing.T, seed uint64) ([]byte, []Frame, *Summary) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xf11847))
	shards := 1 + rng.IntN(4)
	meta := map[string]string{"seed": fmt.Sprint(seed), "kind": "property", "z": "last", "a": "first"}
	var buf bytes.Buffer
	rec, err := New(&buf, meta, shards)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g := &genState{rng: rng, shards: shards, at: make([]sim.Time, shards),
		seq: make([]uint64, shards), rec: rec, pending: make([][]Frame, shards)}
	steps := 100 + rng.IntN(300)
	for i := 0; i < steps; i++ {
		g.step()
	}
	if shards > 1 {
		// Close flushes remaining buffers in shard order without a barrier.
		for i := range g.pending {
			g.expected = append(g.expected, g.pending[i]...)
			g.pending[i] = nil
		}
	}
	sum, err := rec.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := range g.expected {
		g.expected[i].Index = uint64(i)
	}
	return buf.Bytes(), g.expected, sum
}

// TestRoundTripProperty is the record ≡ decode property test: randomized
// event mixes across randomized shard counts, for several seeds, must
// decode to exactly the frames that went in, and replay must reproduce the
// live summary fingerprint.
func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			data, want, liveSum := record(t, seed)

			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			var got []Frame
			var trailer *Frame
			for {
				f, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("Next after %d frames: %v", len(got), err)
				}
				if f.Kind == KindTrailer {
					tf := f
					trailer = &tf
					continue
				}
				got = append(got, f)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("frame %d mismatch:\n got %#v (%s)\nwant %#v (%s)",
						i, got[i], got[i], want[i], want[i])
				}
			}
			if trailer == nil {
				t.Fatal("no trailer frame")
			}
			if trailer.Frames != uint64(len(want)) {
				t.Fatalf("trailer frames=%d, want %d", trailer.Frames, len(want))
			}

			res, err := Replay(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !res.Match() {
				t.Fatalf("replay fingerprint %016x != trailer %016x\nreplay render:\n%s\ntrailer render:\n%s",
					res.Summary.Fingerprint(), res.Trailer.Fingerprint,
					res.Summary.Render(), res.Trailer.Render)
			}
			if res.Summary.Render() != liveSum.Render() {
				t.Fatal("replayed render differs from live summary render")
			}

			// Same seed, fresh recorder: the codec itself must be
			// deterministic down to the bytes.
			data2, _, _ := record(t, seed)
			if !bytes.Equal(data, data2) {
				t.Fatal("re-recording the same sequence produced different bytes")
			}

			// Self-diff must find no divergence.
			div, err := Diff(bytes.NewReader(data), bytes.NewReader(data2))
			if err != nil {
				t.Fatalf("Diff: %v", err)
			}
			if div != nil {
				t.Fatalf("self-diff diverged: %v", div)
			}
		})
	}
}

// TestTapConvertsBusPayloads drives the recorder through the real bus-tap
// surface with live payload types and checks the typed conversion.
func TestTapConvertsBusPayloads(t *testing.T) {
	var buf bytes.Buffer
	rec, err := New(&buf, map[string]string{"seed": "7"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tap(0, bus.Event{Seq: 3, At: 10 * sim.Minute, Topic: bus.TopicAlert,
		Payload: bus.Alert{Kind: bus.AlertLinkDown, At: 10 * sim.Minute, Detail: "x"}})
	rec.Tap(0, bus.Event{Seq: 4, At: 11 * sim.Minute, Topic: bus.TopicTicket,
		Payload: bus.TicketEvent{Kind: bus.TicketOpened, ID: 0, Reactive: true}})
	rec.Tap(0, bus.Event{Seq: 9, At: 12 * sim.Minute, Topic: bus.Topic("custom.topic"),
		Payload: struct{ X int }{42}})
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	al, ok := f1.Payload.(*PAlert)
	if !ok || al.Kind != uint8(bus.AlertLinkDown) || al.Detail != "x" || al.Link != "" {
		t.Fatalf("alert decoded as %#v", f1.Payload)
	}
	f2, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	tk, ok := f2.Payload.(*PTicket)
	if !ok || !tk.Reactive || tk.ID != 0 {
		t.Fatalf("ticket decoded as %#v", f2.Payload)
	}
	f3, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	gen, ok := f3.Payload.(*PGeneric)
	if !ok || gen.TypeName != "struct { X int }" || gen.Text != "{42}" {
		t.Fatalf("generic decoded as %#v", f3.Payload)
	}
	if f3.Seq != 9 || f3.At != 12*sim.Minute {
		t.Fatalf("envelope decoded as seq=%d at=%v", f3.Seq, f3.At)
	}
}

// futurePayload simulates a payload type from a newer writer: an unknown
// kind name with tags this reader has never seen.
type futurePayload struct{}

func (futurePayload) PayloadKind() string { return "frobnicate" }
func (futurePayload) String() string      { return "frobnicate{}" }
func (futurePayload) encodeFields(e *enc) {
	e.tagU(1, 7)
	e.tagS(2, "zap")
	e.tagF(9, 2.5)
	e.tagI(12, -4)
}

// alertWithExtraTags simulates a known kind grown new fields by a newer
// writer: tags 1/2/4 are today's alert schema, 9/10 are from the future.
type alertWithExtraTags struct{}

func (alertWithExtraTags) PayloadKind() string { return "alert" }
func (alertWithExtraTags) String() string      { return "alert+{}" }
func (alertWithExtraTags) encodeFields(e *enc) {
	e.tagU(1, 2)
	e.tagS(2, "linkname")
	e.tagS(9, "future-field")
	e.tagU(10, 123)
	e.tagS(4, "detail")
}

// TestSchemaEvolution checks the two growth paths the format promises:
// unknown payload kinds decode generically, and unknown tags on known
// kinds are skipped without desync (including their interned strings).
func TestSchemaEvolution(t *testing.T) {
	var buf bytes.Buffer
	rec, err := New(&buf, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.add(Frame{Kind: KindEvent, At: sim.Hour, Seq: 1, Topic: "t", Payload: futurePayload{}})
	rec.add(Frame{Kind: KindEvent, At: 2 * sim.Hour, Seq: 2, Topic: "t", Payload: alertWithExtraTags{}})
	// A third frame reusing the interned "future-field" string proves the
	// table stayed in sync across the skipped tag.
	rec.add(Frame{Kind: KindEvent, At: 3 * sim.Hour, Seq: 3, Topic: "t",
		Payload: &PGeneric{TypeName: "future-field", Text: "zap"}})
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	unk, ok := f1.Payload.(*PUnknown)
	if !ok {
		t.Fatalf("future kind decoded as %#v", f1.Payload)
	}
	if unk.Name != "frobnicate" || len(unk.Fields) != 4 {
		t.Fatalf("unknown payload %#v", unk)
	}
	if s := unk.String(); !strings.Contains(s, "frobnicate{") || !strings.Contains(s, `2="zap"`) {
		t.Fatalf("unknown render %q", s)
	}
	f2, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	al, ok := f2.Payload.(*PAlert)
	if !ok {
		t.Fatalf("grown alert decoded as %#v", f2.Payload)
	}
	if al.Kind != 2 || al.Link != "linkname" || al.Detail != "detail" {
		t.Fatalf("grown alert fields %#v", al)
	}
	f3, err := rd.Next()
	if err != nil {
		t.Fatalf("frame after skipped tags: %v", err)
	}
	gen, ok := f3.Payload.(*PGeneric)
	if !ok || gen.TypeName != "future-field" || gen.Text != "zap" {
		t.Fatalf("intern table desynced: %#v", f3.Payload)
	}
}

// TestUnknownFrameKind hand-crafts a file containing a frame kind from the
// future; the reader must carry it as raw bytes and keep going.
func TestUnknownFrameKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	buf.WriteByte(0)                        // no metadata
	buf.Write([]byte{4, 99, 0xa, 0xb, 0xc}) // len=4, kind=99, 3 payload bytes
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != Kind(99) || !bytes.Equal(f.Raw, []byte{0xa, 0xb, 0xc}) {
		t.Fatalf("unknown frame decoded as %#v", f)
	}
	if s := f.String(); s != "kind(99) len=3" {
		t.Fatalf("unknown frame render %q", s)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF after unknown frame, got %v", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version + 1)
	buf.WriteByte(0)
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future container version accepted")
	}
}

func TestTruncatedRecording(t *testing.T) {
	data, _, _ := record(t, 3)
	cut := data[:len(data)-7]
	rd, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := rd.Next()
		if err == io.EOF {
			t.Fatal("truncated stream read cleanly to EOF")
		}
		if err != nil {
			return // truncation surfaced as an explicit error
		}
	}
}

// TestDiffFindsFirstDivergence records two streams sharing a prefix and
// checks the locator lands exactly on the first differing frame.
func TestDiffFindsFirstDivergence(t *testing.T) {
	mk := func(detail string, extra bool) []byte {
		var buf bytes.Buffer
		rec, err := New(&buf, map[string]string{"seed": detail}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec.add(Frame{Kind: KindEvent, At: sim.Minute, Seq: 1, Topic: "t",
			Payload: &PAlert{Kind: 1, Link: "l0"}})
		rec.Barrier(1, sim.Hour)
		rec.add(Frame{Kind: KindEvent, At: 2 * sim.Hour, Seq: 2, Topic: "t",
			Payload: &PAlert{Kind: 1, Link: "l0", Detail: detail}})
		if extra {
			rec.add(Frame{Kind: KindEvent, At: 3 * sim.Hour, Seq: 3, Topic: "t",
				Payload: &PAlert{Kind: 2, Link: "l1"}})
		}
		if _, err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := mk("same", false), mk("different", false)
	div, err := Diff(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("differing recordings diffed as identical")
	}
	if div.Index != 2 || div.Epoch != 1 {
		t.Fatalf("divergence located at frame %d epoch %d, want frame 2 epoch 1", div.Index, div.Epoch)
	}
	if !strings.Contains(div.A, "same") || !strings.Contains(div.B, "different") {
		t.Fatalf("divergence renders: %q vs %q", div.A, div.B)
	}
	if !strings.Contains(div.String(), "first divergence at frame 2") {
		t.Fatalf("locator text %q", div.String())
	}

	// Prefix case: stream a ends early.
	short, long := mk("same", false), mk("same", true)
	div, err = Diff(bytes.NewReader(short), bytes.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	// Frames 0..2 match; frame 3 is a's trailer vs b's extra event.
	if div == nil || div.Reason != "frame mismatch" || div.Index != 3 {
		t.Fatalf("prefix diff: %v", div)
	}

	// Metadata-only differences are not divergence.
	div, err = Diff(bytes.NewReader(mk("same", false)), bytes.NewReader(mk("same", false)))
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("identical frames with identical meta diverged: %v", div)
	}
}

// TestSummaryTicketLifecycle pins the reactive window/open accounting the
// replay consumers (R7 reconstruction) rely on.
func TestSummaryTicketLifecycle(t *testing.T) {
	s := newSummary(nil)
	ev := func(at sim.Time, p Payload) {
		s.Add(Frame{Kind: KindEvent, At: at, Topic: "triage.ticket", Payload: p})
	}
	ev(0, &PTicket{Kind: uint8(bus.TicketOpened), ID: 0, Reactive: true})
	ev(sim.Hour, &PTicket{Kind: uint8(bus.TicketOpened), ID: 1, Reactive: false})
	ev(2*sim.Hour, &PTicket{Kind: uint8(bus.TicketOpened), ID: 2, Reactive: true})
	ev(3*sim.Hour, &PTicket{Kind: uint8(bus.TicketResolved), ID: 0, Reactive: true})
	// Cancelled events carry no Reactive flag; the open map remembers.
	ev(4*sim.Hour, &PTicket{Kind: uint8(bus.TicketCancelled), ID: 2})
	ev(5*sim.Hour, &PTicket{Kind: uint8(bus.TicketOpened), ID: 3, Reactive: true})

	if got := s.ReactiveWindows(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("windows %v, want [3]", got)
	}
	if s.reactOpened != 3 || s.reactResolved != 1 || s.reactCancelled != 1 {
		t.Fatalf("counts opened=%d resolved=%d cancelled=%d", s.reactOpened, s.reactResolved, s.reactCancelled)
	}
	if got := s.ReactiveOpen(); got != 1 {
		t.Fatalf("reactive open %d, want 1", got)
	}
}

// BenchmarkRecordEvent measures the per-event cost of the hot tap path.
func BenchmarkRecordEvent(b *testing.B) {
	rec, err := New(io.Discard, map[string]string{"seed": "1"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ev := bus.Event{Seq: 0, At: 0, Topic: bus.TopicDispatch,
		Payload: bus.Dispatch{Ticket: 7, Actor: "unit-3", Robot: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i)
		ev.At = sim.Time(i) * sim.Second
		rec.Tap(0, ev)
	}
	if rec.Err() != nil {
		b.Fatal(rec.Err())
	}
}
