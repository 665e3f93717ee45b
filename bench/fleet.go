package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// fleetWorkers is the shard worker count of every measured fleet run; the
// traced run repeats its days at 1 worker for sim.multi.speedup.
const fleetWorkers = 2

// fleetSpec sizes the fleet-sharded workload: 64 datacenters of a 32×8
// leaf-spine with 16 hosts per leaf (768 links each, 49,152 fleet-wide),
// run in ops of ten simulated days. Toy: two small regions, one-day ops.
func fleetSpec(seed uint64, toy bool) (scenario.FleetParams, int) {
	p := scenario.FleetParams{Seed: derive(seed, 0), Regions: 64, Leaves: 32, Spines: 8, HostsPerLeaf: 16,
		FaultScale: 20, TrunkScale: 50}
	opDays := 10
	if toy {
		p.Regions, p.Leaves, p.Spines, p.HostsPerLeaf, opDays = 2, 4, 2, 2, 1
	}
	return p, opDays
}

// fleetRun is one fleet being advanced a simulated day at a time.
type fleetRun struct {
	f   *fleet.Fleet
	p   scenario.FleetParams
	day int
}

// newFleetRun builds a fleet and warms it up through day 1.
func newFleetRun(p scenario.FleetParams, workers int) (*fleetRun, error) {
	f, _, err := scenario.BuildFleet(p, workers)
	if err != nil {
		return nil, err
	}
	fr := &fleetRun{f: f, p: p}
	fr.advance()
	return fr, nil
}

func (fr *fleetRun) advance() {
	fr.day++
	fr.f.Run(sim.Time(fr.day) * sim.Day)
}

func (fr *fleetRun) key() string {
	p := fr.p
	return fmt.Sprintf("fleet-sharded/seed=%d/regions=%d/fabric=%dx%dx%d/day=%d",
		p.Seed, p.Regions, p.Leaves, p.Spines, p.HostsPerLeaf, fr.day)
}

// check digests the fleet's report at the current day and checks the
// invariants any report must satisfy. Worker count is not part of the key:
// reports must be identical at every worker count.
func (r *run) checkFleet(fr *fleetRun, prevFired uint64) *fleet.Report {
	rep := fr.f.Report()
	key := fr.key()
	switch {
	case rep.Regions != fr.p.Regions || len(rep.PerRegion) != fr.p.Regions:
		r.fail("%s: report covers %d/%d regions, want %d", key, rep.Regions, len(rep.PerRegion), fr.p.Regions)
	case rep.Fired <= prevFired:
		r.fail("%s: no events fired since the last op", key)
	case rep.OverlayAvail < 0 || rep.OverlayAvail > 1:
		r.fail("%s: overlay availability %v outside [0,1]", key, rep.OverlayAvail)
	default:
		var d digest
		d.add(key, rep.Render())
		r.digestOp(key, d.sum())
	}
	return rep
}

// fleetTracer attributes a fleet's host time: one event clock per shard
// worker and a span per epoch. Shard i drains on worker i mod workers —
// MultiEngine partitions shards round-robin — so each clock is only ever
// touched by one goroutine within an epoch, and by the coordinator at the
// barrier, after every worker has finished.
type fleetTracer struct {
	r     *run
	f     *fleet.Fleet
	lanes []*evClock
	last  time.Time
}

func (r *run) traceFleet(f *fleet.Fleet, op int) *fleetTracer {
	w := min(f.ME.Workers(), f.ME.Shards())
	ft := &fleetTracer{r: r, f: f, lanes: make([]*evClock, w)}
	for i := range ft.lanes {
		ft.lanes[i] = newEvClock()
		ft.lanes[i].op = op
	}
	return ft
}

// set installs the tracer's hooks, or removes them.
func (ft *fleetTracer) set(on bool) {
	for i := 0; i < ft.f.ME.Shards(); i++ {
		var fn sim.Tracer
		if on {
			fn = ft.lanes[i%len(ft.lanes)].fire
		}
		ft.f.ME.Shard(i).Engine().SetTracer(fn)
	}
	if on {
		ft.f.ME.SetBarrierHook(ft.barrier)
	} else {
		ft.f.ME.SetBarrierHook(nil)
	}
}

// barrier runs on the coordinator after each epoch: the time each worker
// spent after its last event is the epoch tail, not that event's.
func (ft *fleetTracer) barrier(uint64, sim.Time) {
	now := time.Now()
	for _, l := range ft.lanes {
		l.closeAt(now, tailEvent)
	}
	ft.r.sample("sim.multi.epoch_us", float64(now.Sub(ft.last).Nanoseconds())/1e3)
	if ft.r.tr != nil {
		ft.r.tr.interval(ft.lanes[0].op, "epoch", "", ft.last, now)
	}
	ft.last = now
}

// advance simulates one day with the hooks installed.
func (ft *fleetTracer) advance(fr *fleetRun) {
	ft.last = time.Now()
	fr.advance()
	for _, l := range ft.lanes {
		l.close(tailEvent)
	}
}

// flush moves the clocks' aggregates into the trace while recording, and
// drops them otherwise.
func (ft *fleetTracer) flush() {
	for _, l := range ft.lanes {
		if ft.r.tr != nil {
			ft.r.tr.absorb(l)
		} else {
			clear(l.aggs)
		}
	}
}

// runFleet is the fleet-sharded workload. Set-up is building the fleet and
// simulating its first day; every set-up must reach the same report.
func runFleet(r *run) error {
	p, opDays := fleetSpec(r.o.seed, r.o.toy)
	var fr *fleetRun
	var first string
	setupS, err := r.measureSetup(func() { fr = nil }, func() (err error) {
		if fr, err = newFleetRun(p, fleetWorkers); err != nil {
			return err
		}
		var d digest
		d.add(fr.f.Report().Render())
		if first == "" {
			first = d.sum()
		} else if d.sum() != first {
			r.violate("fleet set-ups of one seed reached different reports after day 1")
		}
		return nil
	})
	if err != nil {
		return err
	}

	var dayMs []float64
	prev := fr.f.Report()
	prevBus := fr.f.Bus.Stats()
	// op advances opDays days, a day at a time by tick, and checks the
	// report; while traced it adds the growth of the fleet's counters.
	op := func(fr *fleetRun, tick func(*fleetRun)) {
		r.res.Attempted++
		for j := 0; j < opDays; j++ {
			t0 := time.Now()
			tick(fr)
			dayMs = append(dayMs, ms(time.Since(t0)))
		}
		rep := r.checkFleet(fr, prev.Fired)
		bus := fr.f.Bus.Stats()
		r.add("sim.multi.epochs", float64(rep.Epochs-prev.Epochs))
		r.add("sim.multi.exchanged", float64(rep.Exchanged-prev.Exchanged))
		r.add("bus.published", float64(bus.Published-prevBus.Published))
		r.add("bus.deliveries", float64(bus.Deliveries-prevBus.Deliveries))
		r.add("fleet.transfers_granted", float64(rep.Stats.TransfersGranted-prev.Stats.TransfersGranted))
		r.add("fleet.tickets_opened", float64(rep.Stats.TicketsOpened-prev.Stats.TicketsOpened))
		for i, s := range rep.PerRegion {
			r.add("ticket.resolved", float64(s.Resolved-prev.PerRegion[i].Resolved))
		}
		pending := 0
		for i := 0; i < fr.f.ME.Shards(); i++ {
			pending += fr.f.ME.Shard(i).Engine().Pending()
		}
		r.max("sim.pending_max", float64(pending))
		prev, prevBus = rep, bus
	}
	plain := (*fleetRun).advance

	if r.trace == nil {
		rounds, _ := timebox(r.o.seconds, func(int) error { op(fr, plain); return nil })
		r.reportEndToEnd(setupS, float64(p.Regions*opDays), rounds, dayMs)
		return nil
	}

	// Traced: the set-up fleet runs ops alternately untraced and traced.
	// A fresh fleet at 1 worker then runs the same ops, traced alike, for
	// the speed-up; its reports must equal the 2-worker fleet's.
	wl := r.trace.begin(0, "workload", "fleet-sharded")
	defer r.trace.end(wl)
	ft := r.traceFleet(fr.f, wl)
	runOp := func(fr *fleetRun, ft *fleetTracer, k int) {
		traced := tracedAt(k)
		ft.set(traced)
		if traced {
			op(fr, ft.advance)
		} else {
			op(fr, plain)
		}
		ft.flush()
	}
	ops, _ := timebox(r.o.seconds/2, func(k int) error {
		return r.execute(tracedAt(k), func() error { runOp(fr, ft, k); return nil })
	})
	fr = nil // let the 2-worker fleet go before building the 1-worker one

	serial, err := newFleetRun(p, 1)
	if err != nil {
		return err
	}
	prev, prevBus = serial.f.Report(), serial.f.Bus.Stats()
	ft1 := r.traceFleet(serial.f, wl)
	t0 := time.Now()
	for k := range ops {
		runOp(serial, ft1, k)
	}
	wall1 := time.Since(t0)
	r.counts["sim.multi.speedup"] = wall1.Seconds() / (r.wallTraced + r.wallUntraced).Seconds()
	traced := 0
	for k := range ops {
		if tracedAt(k) {
			traced++
		}
	}
	r.reportLayers(traced)
	return nil
}
