package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ticket"
)

// The R7 sweep: automation levels × per-dispatch chaos rates. Fixed here so
// the live experiment and the from-recording regeneration walk cells in the
// same order.
var (
	r7Levels = []core.Level{core.L1, core.L3}
	r7Rates  = []float64{0, 0.1, 0.3}
)

// r7 is one (level × chaos × seed) cell's raw result — computed live from
// the world, or reconstructed from a flight recording by r7FromSummary.
type r7 struct {
	windows              []float64
	robot, human         int
	watchdog, degraded   int
	late, injected, open int
}

// R7ActuatorChaos regenerates Table R7: repair performance when the
// maintenance plane's own actuators fail — robots stalling mid-rung, losing
// their outcome reports, finishing late, or crying wolf (spurious give-ups).
// Each (level × chaos-rate × seed) cell runs the standard accelerated year
// with the robot lane wrapped in faults.ScaledExecChaos at the given rate;
// rate 0 is the unwrapped baseline, so the first row of each level doubles
// as a regression anchor against T1. The table reports repair-latency
// quantiles, the share of dispatches that fell to the human lane, and the
// watchdog's own bookkeeping (fires, degradations, late outcomes) against
// the injected fault count.
//
// With p.RecordDir set, every cell also writes a flight recording
// (R7-<level>-chaos<rate>-seed<seed>.fr); R7FromRecordings regenerates the
// identical table from those files without re-simulating.
func R7ActuatorChaos(r *Runner, p RepairParams) (*metrics.Table, error) {
	var cells []Cell[r7]
	for _, level := range r7Levels {
		for _, rate := range r7Rates {
			for _, seed := range p.Seeds {
				cells = append(cells, Cell[r7]{
					Key: fmt.Sprintf("R7/%v/chaos=%g/seed=%d", level, rate, seed),
					Run: func() (r7, error) {
						return runR7Cell(p, level, rate, seed)
					},
				})
			}
		}
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, err
	}
	return r7Table(p.Duration.String(), p.FaultScale, len(p.Seeds), res), nil
}

// runR7Cell runs one (level × chaos × seed) world, recording it when
// p.RecordDir is set.
func runR7Cell(p RepairParams, level core.Level, rate float64, seed uint64) (r7, error) {
	var c r7
	w, err := Build(Options{
		Seed:       seed,
		BuildNet:   p.net(),
		Level:      level,
		Techs:      2,
		Robots:     true,
		FaultScale: p.FaultScale,
		Chaos:      faults.ScaledExecChaos(rate),
	})
	if err != nil {
		return c, err
	}
	var recd *Recording
	var out *os.File
	if p.RecordDir != "" {
		out, err = os.Create(filepath.Join(p.RecordDir, r7RecordingName(level, rate, seed)))
		if err != nil {
			return c, err
		}
		recd, err = w.StartRecording(out, r7RecordingMeta(p, level, rate, seed), 6*sim.Hour)
		if err != nil {
			out.Close()
			return c, err
		}
	}
	w.Run(p.Duration)
	for _, t := range w.Store.All() {
		if t.Kind != ticket.Reactive {
			continue
		}
		switch t.Status {
		case ticket.Resolved:
			c.windows = append(c.windows, t.ServiceWindow().Duration().Hours())
		case ticket.Open, ticket.Assigned, ticket.Active:
			c.open++
		}
	}
	st := w.Ctrl.Stats()
	c.robot, c.human = st.RobotTasks, st.HumanTasks
	c.watchdog, c.degraded, c.late = st.WatchdogFires, st.DegradedTickets, st.LateOutcomes
	c.injected = w.ChaosStats().Injected()
	if recd != nil {
		if _, err := recd.Close(); err != nil {
			out.Close()
			return c, err
		}
		if err := out.Close(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// r7Table aggregates per-cell results into the rendered table. The live
// experiment and the from-recording path both feed it, in identical
// (level × rate × seed) cell order, so their outputs are byte-identical.
func r7Table(duration string, faultScale float64, seeds int, res []r7) *metrics.Table {
	tab := &metrics.Table{
		Title: "R7: repair performance under actuator chaos",
		Cols: []string{"level", "chaos", "tickets", "median", "p95",
			"human share", "watchdog", "degraded", "late", "injected"},
		Notes: []string{
			fmt.Sprintf("duration=%s per seed, fault acceleration x%g, seeds=%d", duration, faultScale, seeds),
			"chaos: total per-dispatch injection rate on the robot lane (stall/lost/slow/spurious mix)",
			"human share: fraction of physical dispatches executed by technicians",
			"watchdog/degraded/late: force-failed attempts, tickets escalated after repeated robot",
			"watchdog failures, and outcomes arriving after their attempt was force-failed",
		},
	}
	i := 0
	for _, level := range r7Levels {
		for _, rate := range r7Rates {
			var all metrics.Histogram
			var agg r7
			for s := 0; s < seeds; s++ {
				c := res[i]
				i++
				for _, v := range c.windows {
					all.Add(v)
				}
				agg.robot += c.robot
				agg.human += c.human
				agg.watchdog += c.watchdog
				agg.degraded += c.degraded
				agg.late += c.late
				agg.injected += c.injected
				agg.open += c.open
			}
			dispatches := agg.robot + agg.human
			share := 0.0
			if dispatches > 0 {
				share = float64(agg.human) / float64(dispatches)
			}
			tab.AddRow(level.String(), fmt.Sprintf("%.0f%%", 100*rate), all.N(),
				fmtHours(all.Quantile(0.5)), fmtHours(all.Quantile(0.95)),
				fmt.Sprintf("%.1f%%", 100*share),
				agg.watchdog, agg.degraded, agg.late, agg.injected)
		}
	}
	return tab
}

// r7RecordingName is the per-cell recording filename.
func r7RecordingName(level core.Level, rate float64, seed uint64) string {
	return fmt.Sprintf("R7-%v-chaos%g-seed%d.fr", level, rate, seed)
}

// r7RecordingMeta is the header metadata identifying one R7 cell: the run
// coordinates plus the parameters the table notes reproduce.
func r7RecordingMeta(p RepairParams, level core.Level, rate float64, seed uint64) map[string]string {
	return map[string]string{
		"experiment": "R7",
		"level":      level.String(),
		"chaos":      fmt.Sprintf("%g", rate),
		"seed":       fmt.Sprintf("%d", seed),
		"duration":   p.Duration.String(),
		"faultscale": fmt.Sprintf("%g", p.FaultScale),
		"quick":      fmt.Sprintf("%t", p.Quick),
	}
}

// r7FromSummary reconstructs one cell's result from a replayed recording:
// service windows from the ticket-event stream, the work counters from the
// end-of-run state frame. Produces exactly what the live cell computed.
func r7FromSummary(sum *flightrec.Summary) (r7, error) {
	c := r7{windows: sum.ReactiveWindows(), open: sum.ReactiveOpen()}
	var firstErr error
	get := func(key string) int {
		kv, ok := sum.StateKV(0, key)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("scenario: recording has no state key %q", key)
			}
			return 0
		}
		return int(kv.Int())
	}
	c.robot = get("robot-tasks")
	c.human = get("human-tasks")
	c.watchdog = get("watchdog-fires")
	c.degraded = get("degraded-tickets")
	c.late = get("late-outcomes")
	c.injected = get("chaos-injected")
	return c, firstErr
}

// R7FromRecordings regenerates the R7 table from a directory of per-cell
// flight recordings written by a prior run with RecordDir set — no
// simulation. The sweep coordinates (levels, rates, seeds) and the table
// parameters are recovered from the recordings' metadata; every replay is
// checked against its trailer fingerprint, so a corrupt or lossy file fails
// loudly instead of skewing the table.
func R7FromRecordings(dir string) (*metrics.Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cellRes struct {
		c    r7
		meta map[string]string
	}
	bySeed := map[string]map[uint64]cellRes{} // "level/chaos" -> seed -> cell
	seedSet := map[uint64]bool{}
	var duration string
	var faultScale float64
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "R7-") || !strings.HasSuffix(name, ".fr") {
			continue
		}
		res, err := replayFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		meta := res.Meta
		if meta["experiment"] != "R7" {
			return nil, fmt.Errorf("%s: not an R7 recording (experiment=%q)", name, meta["experiment"])
		}
		seed, err := strconv.ParseUint(meta["seed"], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad seed metadata %q", name, meta["seed"])
		}
		fs, err := strconv.ParseFloat(meta["faultscale"], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad faultscale metadata %q", name, meta["faultscale"])
		}
		if n == 0 {
			duration, faultScale = meta["duration"], fs
		} else if meta["duration"] != duration || fs != faultScale {
			return nil, fmt.Errorf("%s: parameters %s/x%g differ from the other recordings (%s/x%g) — mixed runs in one directory",
				name, meta["duration"], fs, duration, faultScale)
		}
		c, err := r7FromSummary(res.Summary)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		key := meta["level"] + "/" + meta["chaos"]
		if bySeed[key] == nil {
			bySeed[key] = map[uint64]cellRes{}
		}
		bySeed[key][seed] = cellRes{c: c, meta: meta}
		seedSet[seed] = true
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("no R7-*.fr recordings in %s", dir)
	}
	var seeds []uint64
	for s := range seedSet {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	var res []r7
	for _, level := range r7Levels {
		for _, rate := range r7Rates {
			key := fmt.Sprintf("%v/%g", level, rate)
			for _, seed := range seeds {
				cell, ok := bySeed[key][seed]
				if !ok {
					return nil, fmt.Errorf("missing recording for cell %s/seed=%d (expected %s)",
						key, seed, r7RecordingName(level, rate, seed))
				}
				res = append(res, cell.c)
			}
		}
	}
	return r7Table(duration, faultScale, len(seeds), res), nil
}

// replayFile replays one recording from disk and enforces the lossless
// round-trip: the re-derived fingerprint must equal the trailer's.
func replayFile(path string) (*flightrec.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := flightrec.Replay(f)
	if err == nil {
		err = res.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return res, nil
}
