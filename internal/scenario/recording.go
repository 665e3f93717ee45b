package scenario

import (
	"fmt"
	"io"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/flightrec"
	"repro/internal/sim"
)

// Recording is a flight recorder attached to one World: every bus event is
// captured via a tap, periodic metric snapshots via an engine ticker, and
// Close appends the end-of-run scalars (ticket summary, controller stats,
// ledger) as state frames before writing the trailer. Replaying the file
// reproduces the live summary fingerprint without re-simulating.
type Recording struct {
	w      *World
	rec    *flightrec.Recorder
	sub    *bus.Subscription
	tick   *sim.Ticker
	closed bool
}

// StartRecording attaches a flight recorder to the world. meta is stored in
// the file header (seed, level, config digest — whatever identifies the
// run). snapshotEvery > 0 also samples availability/backlog periodically;
// the sampler only reads world state, so a recorded run stays byte-
// identical to an unrecorded one. Call Close after the run; the recorder
// does not close out.
func (w *World) StartRecording(out io.Writer, meta map[string]string, snapshotEvery sim.Time) (*Recording, error) {
	rec, err := flightrec.New(out, meta, 1)
	if err != nil {
		return nil, err
	}
	r := &Recording{w: w, rec: rec, sub: rec.TapBus(w.Bus, 0)}
	if snapshotEvery > 0 {
		r.tick = w.Eng.Every(snapshotEvery, snapshotEvery, "flightrec-snapshot", func(at sim.Time) {
			rec.Snapshot(0, at, worldSnap(w))
		})
	}
	return r, nil
}

// worldSnap samples the world's headline gauges. Read-only: recording must
// not perturb the run it observes.
func worldSnap(w *World) flightrec.Snap {
	down := 0
	for _, l := range w.Net.Links {
		if w.Inj.Observable(l.ID) != faults.Healthy {
			down++
		}
	}
	return flightrec.Snap{
		Avail:     w.Ledger.FleetAvailability(),
		LinksDown: down,
		OpenTix:   len(w.Store.OpenQueue()),
		Fired:     w.Eng.Fired(),
	}
}

// Close detaches the tap, records the end-of-run state frame, and writes
// the trailer. It returns the live summary; Replay on the written bytes
// must reproduce its fingerprint.
func (r *Recording) Close() (*flightrec.Summary, error) {
	if r.closed {
		return nil, fmt.Errorf("scenario: recording already closed")
	}
	r.closed = true
	r.sub.Cancel()
	if r.tick != nil {
		r.tick.Stop()
	}
	r.rec.State(0, worldStateKVs(r.w))
	return r.rec.Close()
}

// worldStateKVs flattens the world's end-of-run scalars into one state
// frame — everything the replay consumers (R7 reconstruction, status
// reports) read back without re-simulating.
func worldStateKVs(w *World) []flightrec.KV {
	sum := w.Store.Summarize()
	kvs := []flightrec.KV{
		flightrec.KInt("tickets-total", int64(sum.Total)),
		flightrec.KInt("tickets-resolved", int64(sum.Resolved)),
		flightrec.KInt("tickets-cancelled", int64(sum.Cancelled)),
		flightrec.KInt("tickets-repeats", int64(sum.Repeats)),
		flightrec.KInt("tickets-dedups", int64(sum.Dedups)),
		flightrec.KInt("mean-window-ns", int64(sum.MeanWindow)),
		flightrec.KInt("max-window-ns", int64(sum.MaxWindow)),
		flightrec.KInt("sla-met", int64(sum.SLAMet)),
		flightrec.KFloat("availability", w.Ledger.FleetAvailability()),
		flightrec.KFloat("down-link-hours", w.Ledger.DownLinkHours()),
		flightrec.KFloat("degraded-link-hours", w.Ledger.DegradedLinkHours()),
		flightrec.KInt("chaos-injected", int64(w.ChaosStats().Injected())),
	}
	if w.Ctrl != nil {
		st := w.Ctrl.Stats()
		kvs = append(kvs,
			flightrec.KInt("robot-tasks", int64(st.RobotTasks)),
			flightrec.KInt("human-tasks", int64(st.HumanTasks)),
			flightrec.KInt("escalations", int64(st.EscalationsToHuman)),
			flightrec.KInt("watchdog-fires", int64(st.WatchdogFires)),
			flightrec.KInt("degraded-tickets", int64(st.DegradedTickets)),
			flightrec.KInt("late-outcomes", int64(st.LateOutcomes)),
			flightrec.KInt("proactive-tasks", int64(st.ProactiveTasks)),
			flightrec.KInt("predictive-tasks", int64(st.PredictiveTasks)),
		)
	}
	return kvs
}

// fleetRecording is a flight recorder attached to a region-sharded fleet:
// one tap per shard (hub bus on shard 0, each region's pipeline bus on
// shard r+1), merged at every epoch barrier in shard-id order via the
// multi-engine's barrier hook — which is what makes the recording
// byte-identical at any worker count.
type fleetRecording struct {
	f      *fleet.Fleet
	rec    *flightrec.Recorder
	subs   []*bus.Subscription
	closed bool
}

// startFleetRecording attaches a recorder to a fleet built by BuildFleet.
// Must be called before Run.
func startFleetRecording(f *fleet.Fleet, regions []*fleetRegion, out io.Writer, meta map[string]string) (*fleetRecording, error) {
	rec, err := flightrec.New(out, meta, f.ME.Shards())
	if err != nil {
		return nil, err
	}
	fr := &fleetRecording{f: f, rec: rec}
	fr.subs = append(fr.subs, rec.TapBus(f.Bus, 0))
	for i, reg := range regions {
		fr.subs = append(fr.subs, rec.TapBus(reg.w.Bus, i+1))
	}
	f.ME.SetBarrierHook(rec.Barrier)
	return fr, nil
}

// Close detaches the taps, records the final report as per-shard state
// frames, and writes the trailer. rep must be the fleet's end-of-run
// report (call f.Report() after Run, then Close).
func (fr *fleetRecording) Close(rep *fleet.Report) (*flightrec.Summary, error) {
	if fr.closed {
		return nil, fmt.Errorf("scenario: fleet recording already closed")
	}
	fr.closed = true
	for _, s := range fr.subs {
		s.Cancel()
	}
	fr.f.ME.SetBarrierHook(nil)
	fr.rec.State(0, []flightrec.KV{
		flightrec.KInt("regions", int64(rep.Regions)),
		flightrec.KInt("epochs", int64(rep.Epochs)),
		flightrec.KInt("exchanged", int64(rep.Exchanged)),
		flightrec.KInt("fired", int64(rep.Fired)),
		flightrec.KInt("summaries", int64(rep.Stats.Summaries)),
		flightrec.KInt("tickets-opened", int64(rep.Stats.TicketsOpened)),
		flightrec.KInt("tickets-closed", int64(rep.Stats.TicketsClosed)),
		flightrec.KInt("transfers-requested", int64(rep.Stats.TransfersRequested)),
		flightrec.KInt("transfers-granted", int64(rep.Stats.TransfersGranted)),
		flightrec.KInt("transfers-declined", int64(rep.Stats.TransfersDeclined)),
		flightrec.KInt("trunk-notices", int64(rep.Stats.TrunkNotices)),
		flightrec.KInt("trunk-faults", int64(rep.TrunkFaults)),
		flightrec.KInt("trunk-repairs", int64(rep.TrunkRepairs)),
		flightrec.KFloat("overlay-avail", rep.OverlayAvail),
	})
	for i, s := range rep.PerRegion {
		fr.rec.State(i+1, []flightrec.KV{
			flightrec.KInt("at-ns", int64(s.At)),
			flightrec.KInt("links", int64(s.Links)),
			flightrec.KInt("links-down", int64(s.LinksDown)),
			flightrec.KInt("open-tickets", int64(s.OpenTickets)),
			flightrec.KInt("resolved", int64(s.Resolved)),
			flightrec.KInt("robots-idle", int64(s.RobotsIdle)),
			flightrec.KInt("robots-total", int64(s.RobotsTotal)),
		})
	}
	return fr.rec.Close()
}

// ReplayFleetReport reconstructs the fleet's end-of-run report from a
// replayed recording — no simulation. Its Fingerprint must equal the live
// run's, which is the F8 record→replay acceptance check that
// TestFleetRecordingReplays (run by make replay-diff) makes; no production
// code replays a fleet report.
//
//lint:allow deadexport TestFleetRecordingReplays, the F8 check make replay-diff runs
func ReplayFleetReport(sum *flightrec.Summary) (*fleet.Report, error) {
	geti := func(shard int, key string) (int64, error) {
		kv, ok := sum.StateKV(shard, key)
		if !ok {
			return 0, fmt.Errorf("scenario: recording has no state key %q on shard %d", key, shard)
		}
		return kv.Int(), nil
	}
	var firstErr error
	must := func(shard int, key string) int64 {
		v, err := geti(shard, key)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	rep := &fleet.Report{
		Regions:   int(must(0, "regions")),
		Epochs:    uint64(must(0, "epochs")),
		Exchanged: uint64(must(0, "exchanged")),
		Fired:     uint64(must(0, "fired")),
		Stats: fleet.Stats{
			Summaries:          int(must(0, "summaries")),
			TicketsOpened:      int(must(0, "tickets-opened")),
			TicketsClosed:      int(must(0, "tickets-closed")),
			TransfersRequested: int(must(0, "transfers-requested")),
			TransfersGranted:   int(must(0, "transfers-granted")),
			TransfersDeclined:  int(must(0, "transfers-declined")),
			TrunkNotices:       int(must(0, "trunk-notices")),
		},
		TrunkFaults:  int(must(0, "trunk-faults")),
		TrunkRepairs: int(must(0, "trunk-repairs")),
	}
	if kv, ok := sum.StateKV(0, "overlay-avail"); ok {
		rep.OverlayAvail = kv.Float()
	} else if firstErr == nil {
		firstErr = fmt.Errorf("scenario: recording has no state key %q on shard 0", "overlay-avail")
	}
	for r := 0; r < rep.Regions; r++ {
		shard := r + 1
		rep.PerRegion = append(rep.PerRegion, fleet.Summary{
			Region:      r,
			At:          sim.Time(must(shard, "at-ns")),
			Links:       int(must(shard, "links")),
			LinksDown:   int(must(shard, "links-down")),
			OpenTickets: int(must(shard, "open-tickets")),
			Resolved:    int(must(shard, "resolved")),
			RobotsIdle:  int(must(shard, "robots-idle")),
			RobotsTotal: int(must(shard, "robots-total")),
		})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}
