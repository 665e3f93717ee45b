package flightrec

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/bus"
	"repro/internal/detsort"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Summary accumulates frames into the report a recording stands for. The
// live Recorder feeds it every frame as it is written, and Replay feeds it
// every frame as it is decoded — the same accumulator on both sides, so a
// lossless codec makes the two fingerprints equal byte-for-byte. That
// equality is the record→replay acceptance check: it proves the on-disk
// form carries everything the report derivation consumes.
type Summary struct {
	meta map[string]string

	frames      uint64
	events      uint64
	snapshots   uint64
	stateFrames uint64
	epochs      uint64
	lastEpoch   uint64
	lastEpochAt sim.Time

	topics map[string]uint64

	// Reactive ticket lifecycle, keyed (shard, ticket id): region stores
	// restart ids at 0, so shard disambiguates in fleet recordings.
	allOpened      int
	reactOpened    int
	reactResolved  int
	reactCancelled int
	deduped        int
	open           map[[2]int]openTicket
	wins           []winRec
	winsSorted     bool

	robot, human   int
	outcomes       int
	fixed          int
	watchdog       int
	degradedCnt    int
	journal        int
	alerts         int
	requests       int
	fleetSummaries int
	fleetTickets   int
	fleetTransfers int
	generic        int

	lastSnap   map[int]snapAt
	stateByID  map[int][]KV
	stateOrder []int

	render     string
	renderBody string
}

type openTicket struct {
	at       sim.Time
	reactive bool
}

type winRec struct {
	shard, id int
	hours     float64
}

type snapAt struct {
	at sim.Time
	s  Snap
}

func newSummary(meta map[string]string) *Summary {
	return &Summary{
		meta:      meta,
		topics:    make(map[string]uint64),
		open:      make(map[[2]int]openTicket),
		lastSnap:  make(map[int]snapAt),
		stateByID: make(map[int][]KV),
	}
}

// Add accumulates one frame. Frames must arrive in file order; trailers
// are not Added (the trailer is derived from the summary, not part of it).
func (s *Summary) Add(f Frame) {
	s.render, s.renderBody = "", "" // invalidate any cached render
	s.frames++
	switch f.Kind {
	case KindEvent:
		s.events++
		s.topics[f.Topic]++
		s.addPayload(f)
	case KindSnapshot:
		s.snapshots++
		s.lastSnap[f.Shard] = snapAt{at: f.At, s: f.Snap}
	case KindState:
		s.stateFrames++
		if _, ok := s.stateByID[f.Shard]; !ok {
			s.stateOrder = append(s.stateOrder, f.Shard)
		}
		s.stateByID[f.Shard] = append(s.stateByID[f.Shard], f.State...)
	case KindEpoch:
		s.epochs++
		s.lastEpoch = f.Epoch
		s.lastEpochAt = f.At
	}
}

func (s *Summary) addPayload(f Frame) {
	switch p := f.Payload.(type) {
	case *PAlert:
		s.alerts++
	case *PRequest:
		s.requests++
	case *PTicket:
		key := [2]int{f.Shard, p.ID}
		switch bus.TicketEventKind(p.Kind) {
		case bus.TicketOpened:
			s.allOpened++
			if p.Reactive {
				s.reactOpened++
			}
			s.open[key] = openTicket{at: f.At, reactive: p.Reactive}
		case bus.TicketDeduped:
			s.deduped++
		case bus.TicketResolved:
			if p.Reactive {
				s.reactResolved++
				if ot, ok := s.open[key]; ok {
					s.wins = append(s.wins, winRec{shard: f.Shard, id: p.ID,
						hours: (f.At - ot.at).Duration().Hours()})
					s.winsSorted = false
				}
			}
			delete(s.open, key)
		case bus.TicketCancelled:
			// Cancelled events carry no Reactive flag (the link recovered
			// without intervention); the open-map entry remembers the kind.
			if ot, ok := s.open[key]; ok && ot.reactive {
				s.reactCancelled++
			}
			delete(s.open, key)
		}
	case *PDispatch:
		if p.Robot {
			s.robot++
		} else {
			s.human++
		}
	case *POutcome:
		s.outcomes++
		if p.Fixed {
			s.fixed++
		}
	case *PWatchdog:
		s.watchdog++
	case *PDegraded:
		s.degradedCnt++
	case *PJournal:
		s.journal++
	case *PFleetSummary:
		s.fleetSummaries++
	case *PFleetTicket:
		s.fleetTickets++
	case *PTransfer:
		s.fleetTransfers++
	default:
		s.generic++
	}
}

// Frames returns the number of accumulated frames (trailer excluded).
func (s *Summary) Frames() uint64 { return s.frames }

// ReactiveWindows returns the service windows (hours) of resolved reactive
// tickets, ordered by (shard, ticket id) — creation order within a shard,
// so order-sensitive consumers (histogram means) match a live Store walk.
func (s *Summary) ReactiveWindows() []float64 {
	s.sortWins()
	out := make([]float64, len(s.wins))
	for i, w := range s.wins {
		out[i] = w.hours
	}
	return out
}

func (s *Summary) sortWins() {
	if s.winsSorted {
		return
	}
	slices.SortFunc(s.wins, func(a, b winRec) int {
		if a.shard != b.shard {
			return a.shard - b.shard
		}
		return a.id - b.id
	})
	s.winsSorted = true
}

// ReactiveOpen counts reactive tickets still open at the end of the
// recording (opened, never resolved or cancelled).
func (s *Summary) ReactiveOpen() int {
	n := 0
	//lint:allow mapiter pure counting of open tickets; the total is order-independent
	for _, ot := range s.open {
		if ot.reactive {
			n++
		}
	}
	return n
}

// StateKV looks up one state key on one shard.
func (s *Summary) StateKV(shard int, key string) (KV, bool) {
	for _, kv := range s.stateByID[shard] {
		if kv.Key == key {
			return kv, true
		}
	}
	return KV{}, false
}

// Render produces the canonical report text: the sorted metadata header
// followed by the fingerprinted body. Every line derives from accumulated
// frames through deterministic iteration (sorted keys, sorted windows), so
// live and replayed summaries render identically when the codec is
// lossless.
func (s *Summary) Render() string {
	if s.render != "" {
		return s.render
	}
	var b strings.Builder
	b.WriteString("flight summary\n")
	for _, k := range detsort.Keys(s.meta) {
		fmt.Fprintf(&b, "meta %s=%s\n", k, s.meta[k])
	}
	b.WriteString(s.body())
	s.render = b.String()
	return s.render
}

// body is the fingerprinted portion of the render: everything derived from
// the frame stream, excluding the metadata header. Metadata labels a run
// (seed, worker count, tool); two captures of the same deterministic stream
// under different labels must still fingerprint identically, mirroring
// Diff, which reports metadata differences but never calls them divergence.
func (s *Summary) body() string {
	if s.renderBody != "" {
		return s.renderBody
	}
	var b strings.Builder
	fmt.Fprintf(&b, "frames=%d events=%d snapshots=%d states=%d epochs=%d\n",
		s.frames, s.events, s.snapshots, s.stateFrames, s.epochs)
	if s.epochs > 0 {
		fmt.Fprintf(&b, "last-epoch %d @%d\n", s.lastEpoch, int64(s.lastEpochAt))
	}
	for _, t := range detsort.Keys(s.topics) {
		fmt.Fprintf(&b, "topic %s=%d\n", t, s.topics[t])
	}
	fmt.Fprintf(&b, "tickets opened=%d reactive=%d resolved=%d cancelled=%d deduped=%d open=%d reactive-open=%d\n",
		s.allOpened, s.reactOpened, s.reactResolved, s.reactCancelled, s.deduped,
		len(s.open), s.ReactiveOpen())
	s.sortWins()
	if len(s.wins) > 0 {
		var h metrics.Histogram
		for _, w := range s.wins {
			h.Add(w.hours)
		}
		fmt.Fprintf(&b, "windows n=%d mean=%s p50=%s p95=%s max=%s\n",
			h.N(), fmtFloat(h.Mean()), fmtFloat(h.Quantile(0.5)),
			fmtFloat(h.Quantile(0.95)), fmtFloat(h.Max()))
	}
	fmt.Fprintf(&b, "work alerts=%d requests=%d robot=%d human=%d outcomes=%d fixed=%d watchdog=%d degraded=%d journal=%d\n",
		s.alerts, s.requests, s.robot, s.human, s.outcomes, s.fixed,
		s.watchdog, s.degradedCnt, s.journal)
	if s.fleetSummaries+s.fleetTickets+s.fleetTransfers > 0 {
		fmt.Fprintf(&b, "fleet summaries=%d tickets=%d transfers=%d\n",
			s.fleetSummaries, s.fleetTickets, s.fleetTransfers)
	}
	if s.generic > 0 {
		fmt.Fprintf(&b, "generic=%d\n", s.generic)
	}
	for _, sh := range detsort.Keys(s.lastSnap) {
		sn := s.lastSnap[sh]
		fmt.Fprintf(&b, "snap shard=%d @%d avail=%s down=%d open=%d fired=%d\n",
			sh, int64(sn.at), fmtFloat(sn.s.Avail), sn.s.LinksDown, sn.s.OpenTix, sn.s.Fired)
	}
	for _, sh := range s.stateOrder {
		fmt.Fprintf(&b, "state shard=%d", sh)
		for _, kv := range s.stateByID[sh] {
			b.WriteByte(' ')
			b.WriteString(kv.String())
		}
		b.WriteByte('\n')
	}
	s.renderBody = b.String()
	return s.renderBody
}

// Fingerprint hashes the canonical render body — the byte-identity token
// the replay gate compares against the trailer. The metadata header is
// excluded: the fingerprint identifies the recorded stream, not its label.
func (s *Summary) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.body()))
	return h.Sum64()
}
