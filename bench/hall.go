package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// hallSpec is a closed-loop batch study on one hall: cells of (automation
// level, seed) run one after another, each a fresh world simulated for days
// days with an availability sample at the end of every simulated day. One
// round is one cell per level, so every measured stretch has the same level
// mix.
type hallSpec struct {
	name   string
	fabric string // topology, for op keys
	net    func() (*topology.Network, error)
	levels []core.Level
	seeds  int // cell seeds cycle through this many derived seeds
	days   int
	record bool // flight-record every cell, then close, replay and match
}

const (
	hallFaultScale = 20
	hallTechs      = 2
	hallLoadGbps   = 1000 // uniform matrix offered at each daily sample
	hallSnapEvery  = 6 * sim.Hour
)

// hallYearSpec is the experiment suite's shape: the standard hall (16×4
// leaf-spine, 128 links) for a simulated year at L0, L2 and L4, eight seeds
// each, flight-recorded. Toy: one L4 cell of three days.
func hallYearSpec(toy bool) hallSpec {
	s := hallSpec{name: "hall-year", fabric: "leaf-spine-16x4", net: scenario.StandardHall,
		levels: []core.Level{core.L0, core.L2, core.L4}, seeds: 8, days: 365, record: true}
	if toy {
		s.levels, s.seeds, s.days = []core.Level{core.L4}, 1, 3
	}
	return s
}

// hallLargeSpec is the same pipeline on a fat-tree k=12 (1,296 links) at
// L4. Cells are five days so a run averages over several seeds: one cell's
// host time moves with its fault draw by ±15%. Toy: fat-tree k=4, three
// days.
func hallLargeSpec(toy bool) hallSpec {
	k, days := 12, 5
	if toy {
		k, days = 4, 3
	}
	return hallSpec{name: "hall-large", fabric: fmt.Sprintf("fat-tree-k%d", k),
		net:    func() (*topology.Network, error) { return topology.NewFatTree(topology.DefaultFatTree(k)) },
		levels: []core.Level{core.L4}, seeds: 8, days: days}
}

// cell returns cell i's level, seed and op key.
func (s hallSpec) cell(seed uint64, i int) (core.Level, uint64, string) {
	level := s.levels[i%len(s.levels)]
	cs := derive(seed, (i/len(s.levels))%s.seeds)
	return level, cs, fmt.Sprintf("%s/%s/%v/seed=%d/days=%d/record=%v", s.name, s.fabric, level, cs, s.days, s.record)
}

func (s hallSpec) options(level core.Level, seed uint64, net func() (*topology.Network, error)) scenario.Options {
	return scenario.Options{Seed: seed, BuildNet: net, Level: level, Techs: hallTechs,
		Robots: level >= core.L1, FaultScale: hallFaultScale}
}

// worldSnap is the part of a world's public counters the per-layer metrics
// difference across an op.
type worldSnap struct {
	bus     bus.Stats
	tickets ticket.Summary
	ctrl    core.Stats
	epoch   uint64
}

func snapWorld(w *scenario.World) worldSnap {
	s := worldSnap{bus: w.Bus.Stats(), tickets: w.Store.Summarize(), epoch: w.Router.Epoch()}
	if w.Ctrl != nil {
		s.ctrl = w.Ctrl.Stats()
	}
	return s
}

// addWorldDelta adds the counters' growth from a to b to the per-layer
// metrics.
func (r *run) addWorldDelta(a, b worldSnap) {
	r.add("bus.published", float64(b.bus.Published-a.bus.Published))
	r.add("bus.deliveries", float64(b.bus.Deliveries-a.bus.Deliveries))
	r.add("routing.epochs", float64(b.epoch-a.epoch))
	r.add("ticket.opened", float64(b.tickets.Total-a.tickets.Total))
	r.add("ticket.resolved", float64(b.tickets.Resolved-a.tickets.Resolved))
	r.add("core.robot_tasks", float64(b.ctrl.RobotTasks-a.ctrl.RobotTasks))
	r.add("core.human_tasks", float64(b.ctrl.HumanTasks-a.ctrl.HumanTasks))
	r.add("core.watchdog_fires", float64(b.ctrl.WatchdogFires-a.ctrl.WatchdogFires))
}

// digestWorld adds a world's simulated statistics to d.
func digestWorld(d *digest, w *scenario.World) {
	bs := w.Bus.Stats()
	ts := w.Store.Summarize()
	d.add(w.Eng.Fired(), w.Eng.Pending(), bs.Published, bs.Deliveries, bs.Topics, bs.Subs,
		ts.Total, ts.Resolved, ts.Cancelled, ts.Repeats, ts.Dedups, int64(ts.MeanWindow), int64(ts.MaxWindow),
		ts.SLAMet, ts.AttemptsPerResolved)
	if w.Ctrl != nil {
		d.add(fmt.Sprintf("%+v", w.Ctrl.Stats()))
	}
}

// hallCell runs cell i: build, simulate day by day with the daily sample,
// and, when recording, close → replay → match. It returns the host ms of
// each simulated day, sample included. The op fails when replay does not
// match or the digest differs from an earlier run of the key.
func (r *run) hallCell(s hallSpec, i, parent int) ([]float64, error) {
	level, seed, key := s.cell(r.o.seed, i)
	span := r.begin(parent, "cell", key)
	defer r.end(span)
	r.res.Attempted++

	net := func() (n *topology.Network, err error) {
		r.timeCall(span, "topology.build_ms", func() { n, err = s.net() })
		return n, err
	}
	w, err := scenario.Build(s.options(level, seed, net))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var rec *scenario.Recording
	if s.record {
		if rec, err = w.StartRecording(&buf, map[string]string{"cell": key}, hallSnapEvery); err != nil {
			return nil, err
		}
	}
	var clk *evClock
	if r.tr != nil {
		clk = newEvClock()
		clk.op = span
		w.Eng.SetTracer(clk.fire)
	}
	before := snapWorld(w)
	tm := routing.UniformMatrix(w.Net, hallLoadGbps)

	var d digest
	d.add(key)
	dayMs := make([]float64, 0, s.days)
	for day := 1; day <= s.days; day++ {
		t0 := time.Now()
		slice := r.begin(span, "run", "")
		w.Run(sim.Time(day) * sim.Day)
		if clk != nil {
			clk.close("")
		}
		r.end(slice)
		r.max("sim.pending_max", float64(w.Eng.Pending()))
		var avail float64
		r.timeCall(span, "routing.evaluate_ms", func() { avail = w.TrafficAvailability(tm) })
		d.add(avail)
		dayMs = append(dayMs, ms(time.Since(t0)))
	}
	r.add("routing.evaluate.calls", float64(s.days))

	if rec != nil {
		var live *flightrec.Summary
		r.timeCall(span, "flightrec.close_ms", func() { live, err = rec.Close() })
		if err != nil {
			return nil, fmt.Errorf("%s: close recording: %w", key, err)
		}
		var res *flightrec.Result
		r.timeCall(span, "flightrec.replay_ms", func() { res, err = flightrec.Replay(bytes.NewReader(buf.Bytes())) })
		switch {
		case err != nil:
			r.fail("%s: replay: %v", key, err)
		case !res.Match() || res.Summary.Fingerprint() != live.Fingerprint():
			r.fail("%s: replayed recording does not match the live run", key)
		default:
			r.add("flightrec.frames", float64(res.Frames))
			r.add("flightrec.bytes", float64(buf.Len()))
			d.add(live.Fingerprint())
		}
	}
	if clk != nil {
		r.tr.absorb(clk)
	}
	r.addWorldDelta(before, snapWorld(w))
	digestWorld(&d, w)
	r.digestOp(key, d.sum())
	return dayMs, nil
}

// runHall is the hall-year and hall-large workload. Set-up is standing up
// one hall: build cell 0's world, attach the recorder, and take the first,
// cold, availability sample.
func runHall(r *run, s hallSpec) error {
	setupS, err := r.measureSetup(nil, func() error {
		level, seed, _ := s.cell(r.o.seed, 0)
		w, err := scenario.Build(s.options(level, seed, s.net))
		if err != nil {
			return err
		}
		if s.record {
			if _, err := w.StartRecording(io.Discard, nil, hallSnapEvery); err != nil {
				return err
			}
		}
		w.TrafficAvailability(routing.UniformMatrix(w.Net, hallLoadGbps))
		return nil
	})
	if err != nil {
		return err
	}
	per := len(s.levels)
	var dayMs []float64
	round := func(k, parent int) error {
		for j := 0; j < per; j++ {
			cellMs, err := r.hallCell(s, k*per+j, parent)
			if err != nil {
				return err
			}
			dayMs = append(dayMs, cellMs...)
		}
		return nil
	}

	if r.trace == nil {
		rounds, err := timebox(r.o.seconds, func(k int) error { return round(k, 0) })
		if err != nil {
			return err
		}
		r.reportEndToEnd(setupS, float64(per*s.days), rounds, dayMs)
		return nil
	}

	// Traced: every round runs untraced and traced, so the overhead is
	// measured on the same cells, and the repeated op keys check that
	// tracing does not perturb a cell.
	wl := r.trace.begin(0, "workload", s.name)
	rounds, err := r.pairs(r.o.seconds*2/3, func(k int) error { return round(k, wl) })
	r.trace.end(wl)
	if err != nil {
		return err
	}
	var replayMs float64
	for _, v := range r.samples["flightrec.replay_ms"] {
		replayMs += v
	}
	if replayMs > 0 {
		r.counts["flightrec.replay_frames_per_s"] = r.counts["flightrec.frames"] / (replayMs / 1e3)
	}
	r.reportLayers(rounds * per)
	return nil
}
