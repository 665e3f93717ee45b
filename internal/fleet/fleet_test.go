package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// toyRegion is a lightweight Region for coordinator tests: link health
// wanders with the shard's own RNG, robots go busy and idle, and every
// Region callback is appended to a deterministic per-region trace.
type toyRegion struct {
	shard *sim.Shard
	id    int

	links, down   int
	open, resolve int
	idle, total   int

	trace strings.Builder
}

func newToyRegion(shard *sim.Shard, id int, robots int) *toyRegion {
	r := &toyRegion{shard: shard, id: id, links: 120, idle: robots, total: robots}
	eng := shard.Engine()
	eng.Every(37*sim.Minute, 37*sim.Minute, "toy-churn", func(at sim.Time) {
		rng := eng.RNG("toy")
		// Fault churn: regions with higher ids degrade faster, so the fleet
		// has clear donors and clear borrowers.
		if rng.Bernoulli(0.10 + 0.15*float64(id)) {
			if r.down < r.links/3 {
				r.down++
				r.open++
			}
		} else if r.down > 0 && rng.Bernoulli(0.5) {
			r.down--
			if r.open > 0 {
				r.open--
				r.resolve++
			}
		}
		// Robot churn: borrowers run hot.
		if r.idle > 0 && rng.Bernoulli(0.3+0.2*float64(id)) {
			r.idle--
		} else if r.idle < r.total && rng.Bernoulli(0.4) {
			r.idle++
		}
	})
	return r
}

func (r *toyRegion) Summary(at sim.Time) Summary {
	return Summary{
		Links: r.links, LinksDown: r.down,
		OpenTickets: r.open, Resolved: r.resolve,
		RobotsIdle: r.idle, RobotsTotal: r.total,
	}
}

func (r *toyRegion) LendUnit() bool {
	if r.idle == 0 {
		fmt.Fprintf(&r.trace, "t=%v lend-declined\n", r.shard.Engine().Now())
		return false
	}
	r.idle--
	r.total--
	fmt.Fprintf(&r.trace, "t=%v lend\n", r.shard.Engine().Now())
	return true
}

func (r *toyRegion) ReceiveUnit(name string) {
	r.idle++
	r.total++
	fmt.Fprintf(&r.trace, "t=%v receive %s\n", r.shard.Engine().Now(), name)
}

func (r *toyRegion) TrunkStateChanged(up bool, at sim.Time) {
	fmt.Fprintf(&r.trace, "t=%v trunk up=%v (at %v)\n", r.shard.Engine().Now(), up, at)
}

func buildToyFleet(t *testing.T, workers int) (*Fleet, []*toyRegion) {
	t.Helper()
	regions := make([]*toyRegion, 0, 4)
	f, err := Build(Config{
		Seed: 1701, Regions: 4, Workers: workers,
		Lookahead:    10 * sim.Minute,
		SummaryEvery: 2 * sim.Hour,
		// Starved regions ask quickly so a short run exercises transfers.
		TransferBacklog: 3, TransferCooldown: 6 * sim.Hour,
		TransferTransit: sim.Hour,
		DegradedFrac:    0.05,
		TrunkFaultScale: 300, TrunkRepairMeanH: 2,
		BuildRegion: func(shard *sim.Shard, region int) (Region, error) {
			// Region 0 is robot-rich, region 3 robot-poor.
			r := newToyRegion(shard, region, []int{6, 4, 2, 1}[region])
			regions = append(regions, r)
			return r, nil
		},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f, regions
}

// runToyFleet runs the toy fleet and returns a full deterministic
// transcript: the report plus every region's trace and the hub's bus tap
// log — everything that could expose a worker-count dependence.
func runToyFleet(t *testing.T, workers int) string {
	t.Helper()
	f, regions := buildToyFleet(t, workers)
	var tap strings.Builder
	f.Bus.Tap(func(ev bus.Event) {
		fmt.Fprintf(&tap, "t=%v #%d %s %+v\n", ev.At, ev.Seq, ev.Topic, ev.Payload)
	})
	f.Run(30 * 24 * sim.Hour)
	rep := f.Report()
	var b strings.Builder
	b.WriteString(rep.Render())
	for i, r := range regions {
		fmt.Fprintf(&b, "== region %d trace\n%s", i, r.trace.String())
	}
	fmt.Fprintf(&b, "== hub tap\n%s", tap.String())
	return b.String()
}

// TestFleetWorkerCountsByteIdentical is the fleet-level determinism pin:
// the full transcript (report, per-region traces, hub bus tap) is
// byte-identical at every worker count. Run under -race this also exercises
// the epoch barrier for data races between shard pipelines.
func TestFleetWorkerCountsByteIdentical(t *testing.T) {
	base := runToyFleet(t, 1)
	if !strings.Contains(base, "lend") {
		t.Fatalf("toy fleet never exercised a transfer; transcript:\n%s", base)
	}
	if !strings.Contains(base, "trunk up=") {
		t.Fatal("toy fleet never delivered a trunk notice")
	}
	for _, w := range []int{2, 4, 8} {
		if got := runToyFleet(t, w); got != base {
			t.Fatalf("workers=%d transcript differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s", w, base, w, got)
		}
	}
}

// TestFleetTransfersRebalance checks the brokering policy end to end: the
// starved region receives a unit from the idle-rich donor, with matching
// stats and a granted transfer note on the bus.
func TestFleetTransfersRebalance(t *testing.T) {
	f, regions := buildToyFleet(t, 1)
	var notes []TransferNote
	f.Bus.Subscribe(TopicTransfer, func(ev bus.Event) {
		notes = append(notes, ev.Payload.(TransferNote))
	})
	f.Run(60 * 24 * sim.Hour)

	st := f.stats
	if st.TransfersRequested == 0 {
		t.Fatal("no transfers requested in 60 days of a starved region")
	}
	if st.TransfersGranted+st.TransfersDeclined != st.TransfersRequested {
		t.Fatalf("transfer accounting: %d granted + %d declined != %d requested",
			st.TransfersGranted, st.TransfersDeclined, st.TransfersRequested)
	}
	if len(notes) != st.TransfersRequested {
		t.Fatalf("bus saw %d transfer notes, stats say %d", len(notes), st.TransfersRequested)
	}
	granted := 0
	for _, n := range notes {
		if n.Granted {
			granted++
			if !strings.Contains(regions[n.To].trace.String(), "receive "+n.Unit) {
				t.Fatalf("granted unit %s never arrived at region %d", n.Unit, n.To)
			}
		}
	}
	if granted != st.TransfersGranted {
		t.Fatalf("bus saw %d grants, stats say %d", granted, st.TransfersGranted)
	}
}

// TestFleetTicketsHysteresis: fleet tickets open past the threshold, close
// below half of it, and never double-open.
func TestFleetTicketsHysteresis(t *testing.T) {
	f, _ := buildToyFleet(t, 1)
	f.Run(60 * 24 * sim.Hour)
	st := f.stats
	if st.TicketsOpened == 0 {
		t.Fatal("no fleet tickets opened")
	}
	open := map[int]bool{}
	for _, tk := range f.tickets {
		if tk.ClosedAt == 0 {
			if open[tk.Region] {
				t.Fatalf("region %d has two open fleet tickets", tk.Region)
			}
			open[tk.Region] = true
		} else if tk.ClosedAt < tk.OpenedAt {
			t.Fatalf("ticket closed before it opened: %+v", tk)
		}
	}
	if st.TicketsOpened-st.TicketsClosed < 0 {
		t.Fatalf("closed more tickets than opened: %+v", st)
	}
}

// TestFleetOverlayWeather: the accelerated overlay sees trunk faults, the
// NOC repairs them, and availability stays a sane fraction.
func TestFleetOverlayWeather(t *testing.T) {
	f, _ := buildToyFleet(t, 1)
	f.Run(60 * 24 * sim.Hour)
	rep := f.Report()
	if rep.TrunkFaults == 0 {
		t.Fatal("no trunk faults at 300x acceleration")
	}
	if rep.TrunkRepairs == 0 {
		t.Fatal("NOC repaired nothing")
	}
	if rep.OverlayAvail <= 0 || rep.OverlayAvail > 1 {
		t.Fatalf("overlay availability %v out of range", rep.OverlayAvail)
	}
	if f.Overlay.Trunks() == 0 {
		t.Fatal("overlay has no trunks")
	}
	if f.stats.TrunkNotices == 0 {
		t.Fatal("no trunk notices reached the regions")
	}
}

// TestFleetConfigValidation pins the Build error paths.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := Build(Config{Regions: 0, BuildRegion: func(*sim.Shard, int) (Region, error) { return nil, nil }}); err == nil {
		t.Fatal("Build accepted zero regions")
	}
	if _, err := Build(Config{Regions: 2}); err == nil {
		t.Fatal("Build accepted a nil BuildRegion")
	}
	if _, err := Build(Config{Regions: 1, BuildRegion: func(*sim.Shard, int) (Region, error) {
		return nil, fmt.Errorf("boom")
	}}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("region build error not propagated: %v", err)
	}
}
