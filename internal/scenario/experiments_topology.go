package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/maintindex"
	"repro/internal/metrics"
	"repro/internal/robot"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
	"repro/internal/vision"
)

// F4Maintainability regenerates Figure F4: the self-maintainability index
// versus normalized throughput for four topologies at a comparable switch
// budget — the paper's deployability-vs-efficiency tradeoff (§4). One cell
// per topology.
func F4Maintainability(r *Runner) (*metrics.Figure, *metrics.Table, error) {
	// Equal budget: ~20 switches, every port 100G, hosts sized so the
	// fabric (not the host NICs) is the bottleneck. This is the standard
	// expander-vs-Clos comparison: at a fixed switch budget the flat
	// topologies serve more hosts per switch.
	builds := []struct {
		name  string
		build func() (*topology.Network, error)
	}{
		{"fat-tree k=4", func() (*topology.Network, error) {
			return topology.NewFatTree(topology.FatTreeConfig{K: 4, FabricGbps: 100, HostGbps: 100})
		}},
		{"leaf-spine 16x4", func() (*topology.Network, error) {
			return topology.NewLeafSpine(topology.LeafSpineConfig{
				Leaves: 16, Spines: 4, HostsPerLeaf: 8, Uplinks: 1,
				FabricGbps: 100, HostGbps: 100,
			})
		}},
		{"jellyfish n=20 r=8", func() (*topology.Network, error) {
			return topology.NewJellyfish(topology.JellyfishConfig{
				Switches: 20, FabricDegree: 8, HostsPerSwitch: 8,
				FabricGbps: 100, HostGbps: 100, Seed: 3,
			})
		}},
		{"xpander d=9 k=2", func() (*topology.Network, error) {
			return topology.NewXpander(topology.XpanderConfig{
				Degree: 9, Lift: 2, HostsPerSwitch: 8,
				FabricGbps: 100, HostGbps: 100, Seed: 3,
			})
		}},
	}
	fig := &metrics.Figure{
		Title:  "F4: self-maintainability vs per-switch goodput (20-switch budget)",
		XLabel: "satisfied Gbps per switch (uniform full injection)",
		YLabel: "self-maintainability index (0-100)",
	}
	tab := &metrics.Table{
		Title: "F4 data: maintainability components",
		Cols: []string{"topology", "index", "Gbps/switch", "locality", "clarity", "tray",
			"runs", "drain-tol", "parallel", "media", "regular"},
	}
	type f4 struct {
		rep       maintindex.Report
		perSwitch float64
	}
	var cells []Cell[f4]
	for _, b := range builds {
		cells = append(cells, Cell[f4]{
			Key: "F4/" + b.name,
			Run: func() (f4, error) {
				net, err := b.build()
				if err != nil {
					return f4{}, err
				}
				rep := maintindex.Evaluate(net, maintindex.DefaultConfig())
				// Per-switch goodput under full uniform injection, straight
				// from the report's own throughput probe.
				return f4{rep: rep, perSwitch: rep.SatisfiedGbps / float64(net.Stats().Switches)}, nil
			},
		})
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, nil, err
	}
	for i, b := range builds {
		rep, perSwitch := res[i].rep, res[i].perSwitch
		fig.Add(b.name, []float64{perSwitch}, []float64{rep.Index})
		c := rep.Components
		tab.AddRow(b.name, rep.Index, perSwitch, c.Locality, c.PortClarity,
			c.TrayHeadroom, c.ShortRuns, c.DrainTolerance, c.Parallelism,
			c.MediaSimplicity, c.Regularity)
	}
	return fig, tab, nil
}

// F5FleetSizing regenerates Figure F5: repair throughput under a failure
// storm versus robot fleet size (§3.4). Steady-state failure arrivals are
// comfortably inside one unit's capacity (repairs take minutes), so the
// sizing question only bites during correlated events — a power/cooling
// excursion that degrades a third of the fabric at once. The experiment
// injects such a storm and measures how long each fleet size takes to
// drain it. One cell per (fleet size × seed).
func F5FleetSizing(r *Runner, p RepairParams) (*metrics.Figure, *metrics.Table, error) {
	fig := &metrics.Figure{
		Title:  "F5: storm recovery vs robot fleet size",
		XLabel: "hall-scope robot units",
		YLabel: "hours",
	}
	tab := &metrics.Table{
		Title: "F5 data: fleet sizing under a 33% failure storm",
		Cols:  []string{"units", "storm links", "p99 window (h)", "clear time (h)", "resolved"},
	}
	sizes := []int{1, 2, 4, 8}
	type f5 struct {
		windows  []float64
		clearH   float64 // hours to drain the storm; 0 when never cleared
		resolved int
		stormed  int
	}
	var cells []Cell[f5]
	for _, units := range sizes {
		for _, seed := range p.Seeds {
			cells = append(cells, Cell[f5]{
				Key: fmt.Sprintf("F5/units=%d/seed=%d", units, seed),
				Run: func() (f5, error) {
					var c f5
					w, err := Build(Options{
						Seed:       seed,
						BuildNet:   p.net(),
						Level:      core.L3,
						Techs:      2,
						FaultScale: 0.01, // quiescent background; the storm is the load
					})
					if err != nil {
						return c, err
					}
					for i := 0; i < units; i++ {
						w.Fleet.AddUnit(fmt.Sprintf("hall-%d", i), robot.HallScope,
							topology.Location{Row: 0, Rack: 0})
					}
					// The storm: oxidize every third pluggable fabric link at t=1h.
					var stormLinks []*topology.Link
					var clearedAt sim.Time
					w.Eng.Schedule(sim.Hour, "storm", func() {
						for i, l := range w.Net.SwitchLinks() {
							if i%3 == 0 && l.Cable.Class.NeedsTransceiver() &&
								w.Inj.State(l.ID).Cause == faults.None {
								w.Inj.InduceFault(l, faults.Oxidation)
								stormLinks = append(stormLinks, l)
								c.stormed++
							}
						}
					})
					var watch *sim.Ticker
					watch = w.Eng.Every(sim.Hour+10*sim.Minute, 10*sim.Minute, "storm-watch", func(at sim.Time) {
						for _, l := range stormLinks {
							if w.Inj.Observable(l.ID) != faults.Healthy {
								return
							}
						}
						clearedAt = at
						watch.Stop()
					})
					w.Run(14 * sim.Day)
					for _, t := range w.Store.All() {
						if t.Kind == ticket.Reactive && t.Status == ticket.Resolved {
							c.windows = append(c.windows, t.ServiceWindow().Duration().Hours())
							c.resolved++
						}
					}
					if clearedAt > 0 {
						c.clearH = (clearedAt - sim.Hour).Duration().Hours()
					}
					return c, nil
				},
			})
		}
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, nil, err
	}
	// Storm size is a property of the topology and storm rule, not of the
	// fleet size or seed, so one note covers every cell. Should a build ever
	// make the sizes diverge, each distinct size is reported with the first
	// cell that produced it instead of the last one clobbering the rest.
	uniform := true
	for _, c := range res[1:] {
		if c.stormed != res[0].stormed {
			uniform = false
			break
		}
	}
	if uniform {
		tab.Notes = append(tab.Notes, fmt.Sprintf("storm size %d links per seed", res[0].stormed))
	} else {
		noted := map[int]bool{}
		for i, c := range res {
			if !noted[c.stormed] {
				noted[c.stormed] = true
				tab.Notes = append(tab.Notes, fmt.Sprintf("storm size %d links (%s)",
					c.stormed, cells[i].Key))
			}
		}
	}
	var xs, p99s, clears []float64
	for ui, units := range sizes {
		var h metrics.Histogram
		var clearSum float64
		var resolved int
		for si := range p.Seeds {
			c := res[ui*len(p.Seeds)+si]
			for _, v := range c.windows {
				h.Add(v)
			}
			clearSum += c.clearH
			resolved += c.resolved
		}
		clear := clearSum / float64(len(p.Seeds))
		tab.AddRow(units, "storm", h.Quantile(0.99), clear, resolved)
		xs = append(xs, float64(units))
		p99s = append(p99s, h.Quantile(0.99))
		clears = append(clears, clear)
	}
	fig.Add("p99 window (h)", xs, p99s)
	fig.Add("storm clear time (h)", xs, clears)
	return fig, tab, nil
}

// T6RobotTimings regenerates Table T6: robot task micro-timings against the
// paper's reported numbers — 8-core inspection under 30 s, full cycle "a
// few minutes" (§3.3.2) — and against human hands-on times. The reps run
// sequentially on one world, so the experiment is a single cell.
func T6RobotTimings(r *Runner, reps int, seed uint64) (*metrics.Table, error) {
	cells := []Cell[*metrics.Table]{{
		Key: fmt.Sprintf("T6/seed=%d", seed),
		Run: func() (*metrics.Table, error) { return t6RobotTimings(reps, seed) },
	}}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// robotBench is the rig T6 and T8 time robot tasks on: a controller-less
// small hall with one hall-scope "bench" unit, whose primitives never fail
// and which never stops to charge, and the first separable switch link.
type robotBench struct {
	w    *World
	unit *robot.Unit
	link *topology.Link
}

// newRobotBench builds the rig with o's seed, crew, diversity and faults.
func newRobotBench(o Options) (*robotBench, error) {
	o.BuildNet, o.Level, o.NoController = SmallHall, core.L3, true
	o.MutateRobot = func(rc *robot.Config) {
		rc.PrimitiveFailProb = 0
		rc.BatteryTasks = 0 // no charging pauses during the micro-bench
	}
	w, err := Build(o)
	if err != nil {
		return nil, err
	}
	unit := w.Fleet.AddUnit("bench", robot.HallScope, topology.Location{})
	for _, l := range w.Net.SwitchLinks() {
		if l.HasSeparableFiber() {
			return &robotBench{w: w, unit: unit, link: l}, nil
		}
	}
	return nil, fmt.Errorf("scenario: no separable link")
}

// runTask induces cause on the bench link, has the bench unit run action
// at the cause end, and returns the outcome two virtual hours later.
func (b *robotBench) runTask(cause faults.Cause, action faults.Action) (exec.Outcome, error) {
	b.w.Inj.InduceFault(b.link, cause)
	st := b.w.Inj.State(b.link.ID)
	var out *exec.Outcome
	b.w.Fleet.Execute(b.unit, exec.Task{Link: b.link, End: st.CauseEnd, Action: action},
		func(o exec.Outcome) { out = &o })
	b.w.Eng.RunUntil(b.w.Eng.Now() + 2*sim.Hour)
	if out == nil {
		return exec.Outcome{}, fmt.Errorf("scenario: %v task never finished", action)
	}
	return *out, nil
}

func t6RobotTimings(reps int, seed uint64) (*metrics.Table, error) {
	if reps <= 0 {
		reps = 200
	}
	b, err := newRobotBench(Options{
		Seed: seed, Techs: 1,
		MutateFaults: func(fc *faults.Config) {
			fc.AnnualRate = map[faults.Cause]float64{}
			fc.FixProb[faults.Reseat][faults.Oxidation] = 1
			fc.FixProb[faults.Clean][faults.Contamination] = 1
			fc.CleanRecontaminate = 0
		},
	})
	if err != nil {
		return nil, err
	}

	vis := vision.New(b.w.Eng, vision.DefaultConfig(), 8)
	var inspect metrics.Histogram
	for i := 0; i < reps; i++ {
		inspect.Add(vis.InspectEndFace(b.link.Cable, 0.2).Duration.Duration().Seconds())
	}

	measure := func(cause faults.Cause, action faults.Action) (*metrics.Histogram, error) {
		var h metrics.Histogram
		for i := 0; i < reps; i++ {
			out, err := b.runTask(cause, action)
			if err != nil {
				return nil, err
			}
			if out.Completed && out.Fixed {
				h.Add(out.Duration().Duration().Seconds())
			} else {
				// Clear any remaining fault so the next rep starts clean.
				b.w.Inj.ClearFault(b.link)
			}
			b.unit.Loc = b.unit.Home // re-park between reps
		}
		return &h, nil
	}
	reseat, err := measure(faults.Oxidation, faults.Reseat)
	if err != nil {
		return nil, err
	}
	clean, err := measure(faults.Contamination, faults.Clean)
	if err != nil {
		return nil, err
	}
	swap, err := measure(faults.XcvrDead, faults.ReplaceXcvr)
	if err != nil {
		return nil, err
	}

	tab := &metrics.Table{
		Title: "T6: robot task timings vs paper claims and human hands-on",
		Cols:  []string{"operation", "robot mean (s)", "robot p95 (s)", "human hands-on (s)", "paper claim"},
		Notes: []string{
			"human hands-on excludes dispatch latency (hours), which dominates human service windows",
			fmt.Sprintf("%d repetitions per operation", reps),
		},
	}
	tab.AddRow("inspect 8-core MPO end-face", inspect.Mean(), inspect.Quantile(0.95), 60.0, "<30 s (faster than human)")
	tab.AddRow("reseat transceiver (end-to-end)", reseat.Mean(), reseat.Quantile(0.95), 480.0, "-")
	tab.AddRow("clean + verify cycle", clean.Mean(), clean.Quantile(0.95), 1800.0, "a few minutes")
	tab.AddRow("replace transceiver from spares", swap.Mean(), swap.Quantile(0.95), 1200.0, "-")
	return tab, nil
}

// F6FlapLatency regenerates Figure F6: fabric p999 latency during a
// flapping-link incident under L0 and L3 — how fast repair shrinks the tail
// the paper blames gray failures for (§1). One cell per automation level.
func F6FlapLatency(r *Runner, seed uint64) (*metrics.Figure, error) {
	fig := &metrics.Figure{
		Title:  "F6: tail latency during a flapping-link incident",
		XLabel: "hours since fault onset",
		YLabel: "worst-pair p999 latency (us)",
	}
	levels := []core.Level{core.L0, core.L3}
	type f6 struct{ xs, ys []float64 }
	var cells []Cell[f6]
	for _, level := range levels {
		cells = append(cells, Cell[f6]{
			Key: fmt.Sprintf("F6/%v/seed=%d", level, seed),
			Run: func() (f6, error) {
				w, err := Build(Options{
					Seed: seed, BuildNet: SmallHall, Level: level,
					Techs: 2, Robots: level >= core.L1,
					MutateFaults: func(fc *faults.Config) {
						fc.AnnualRate = map[faults.Cause]float64{}
						fc.DownManifest[faults.Contamination] = 0 // force gray
					},
				})
				if err != nil {
					return f6{}, err
				}
				var link *topology.Link
				for _, l := range w.Net.SwitchLinks() {
					if l.HasSeparableFiber() {
						link = l
						break
					}
				}
				tm := routing.UniformMatrix(w.Net, 400)
				lm := routing.DefaultLatencyModel()
				lossFn := func(id topology.LinkID) float64 {
					c := w.Mon.Counters(id)
					if c.FlapsInWindow > 0 {
						return c.LossEWMA
					}
					return 0
				}
				var c f6
				var ws routing.Workspace
				onset := 10 * sim.Hour
				w.Eng.Schedule(onset, "break", func() { w.Inj.InduceFault(link, faults.Contamination) })
				w.Eng.Every(onset, sim.Hour, "latency-sample", func(at sim.Time) {
					a := w.Router.EvaluateInto(&ws, tm)
					pc := lm.WorstPairLatency(w.Router, tm, a, lossFn)
					c.xs = append(c.xs, (at - onset).Duration().Hours())
					c.ys = append(c.ys, pc.P999)
				})
				w.Run(onset + 72*sim.Hour)
				return c, nil
			},
		})
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, err
	}
	for i, level := range levels {
		fig.Add(level.String(), res[i].xs, res[i].ys)
	}
	return fig, nil
}

// T7AICluster regenerates Table T7: GPU-hours lost in a rail-optimized
// training cluster versus repair regime — the paper's AI-cluster dilemma
// (§1). A rail ring stalls while any of its links is down; goodput is the
// fraction of rails fully up. One cell per (level × seed).
func T7AICluster(r *Runner, p RepairParams) (*metrics.Table, error) {
	cfg := topology.DefaultAICluster()
	if p.Quick {
		cfg.Servers = 16
		cfg.RailsPerServer = 4
	}
	// The ring-stall model saturates at high fault acceleration (every rail
	// permanently broken under both policies); moderate the scale so the
	// repair-speed signal survives.
	scale := p.FaultScale / 6
	if scale < 2 {
		scale = 2
	}
	tab := &metrics.Table{
		Title: "T7: AI training cluster outage burden vs repair regime",
		Cols: []string{"policy", "GPU-hours lost", "max rails down", "mean repair (h)",
			"collective goodput"},
		Notes: []string{
			fmt.Sprintf("%d servers x %d rails, ring collectives stall on any down rail link", cfg.Servers, cfg.RailsPerServer),
		},
	}
	levels := []core.Level{core.L0, core.L3}
	type t7 struct {
		gpuHoursLost, goodput float64
		maxRailsDown          int
		meanRepair            sim.Time
	}
	var cells []Cell[t7]
	for _, level := range levels {
		for _, seed := range p.Seeds {
			cells = append(cells, Cell[t7]{
				Key: fmt.Sprintf("T7/%v/seed=%d", level, seed),
				Run: func() (t7, error) {
					var c t7
					w, err := Build(Options{
						Seed: seed,
						BuildNet: func() (*topology.Network, error) {
							return topology.NewAICluster(cfg)
						},
						Level: level, Techs: 2, Robots: level >= core.L1,
						FaultScale: scale,
					})
					if err != nil {
						return c, err
					}
					rails := w.Net.DevicesOfKind(topology.RailSwitch)
					var integ metrics.StepIntegrator
					sample := func(at sim.Time) {
						down := 0
						for _, rr := range rails {
							railUp := true
							for _, np := range w.Net.Neighbors(rr.ID) {
								if w.Inj.Observable(np.Link.ID) != faults.Healthy {
									railUp = false
									break
								}
							}
							if !railUp {
								down++
							}
						}
						if down > c.maxRailsDown {
							c.maxRailsDown = down
						}
						integ.Observe(at, 1-float64(down)/float64(len(rails)))
					}
					w.Eng.Every(0, sim.Hour, "goodput-sample", sample)
					w.Run(p.Duration)
					c.goodput = integ.Average(w.Eng.Now())
					totalGPUs := float64(cfg.Servers * cfg.RailsPerServer)
					c.gpuHoursLost = (1 - c.goodput) * totalGPUs * p.Duration.Duration().Hours()
					if sum := w.Store.Summarize(); sum.Resolved > 0 {
						c.meanRepair = sum.MeanWindow
					}
					return c, nil
				},
			})
		}
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, err
	}
	for li, level := range levels {
		var gpuHoursLost, goodputSum float64
		var goodputN, maxRailsDown int
		var meanRepair sim.Time
		for si := range p.Seeds {
			c := res[li*len(p.Seeds)+si]
			gpuHoursLost += c.gpuHoursLost
			goodputSum += c.goodput
			goodputN++
			if c.maxRailsDown > maxRailsDown {
				maxRailsDown = c.maxRailsDown
			}
			meanRepair += c.meanRepair
		}
		n := sim.Time(len(p.Seeds))
		tab.AddRow(level.String(), gpuHoursLost/float64(len(p.Seeds)), maxRailsDown,
			(meanRepair / n).Duration().Hours(), goodputSum/float64(goodputN))
	}
	return tab, nil
}

// T8Diversity regenerates Table T8: robotic task success versus hardware
// diversity — the paper's standardization argument (§4). Each fleet
// diversity level runs the same reseat workload; failures escalate to
// humans. One cell per diversity level.
func T8Diversity(r *Runner, tasks int, seed uint64) (*metrics.Table, error) {
	if tasks <= 0 {
		tasks = 400
	}
	tab := &metrics.Table{
		Title: "T8: robot task success vs transceiver-model diversity",
		Cols:  []string{"distinct models", "tasks", "completed %", "human escalations %"},
		Notes: []string{"diversity 1 is the paper's standardized-hardware endpoint (§4)"},
	}
	diversities := []int{1, 4, 16, 32}
	type t8 struct{ completed, escalated int }
	var cells []Cell[t8]
	for _, div := range diversities {
		cells = append(cells, Cell[t8]{
			Key: fmt.Sprintf("T8/div=%d/seed=%d", div, seed),
			Run: func() (t8, error) {
				var c t8
				b, err := newRobotBench(Options{
					Seed: seed, FleetDiversity: div,
					MutateFaults: func(fc *faults.Config) {
						fc.AnnualRate = map[faults.Cause]float64{}
						fc.FixProb[faults.Reseat][faults.Oxidation] = 1
					},
				})
				if err != nil {
					return c, err
				}
				for i := 0; i < tasks; i++ {
					out, err := b.runTask(faults.Oxidation, faults.Reseat)
					if err != nil {
						return c, err
					}
					if out.Completed && out.Fixed {
						c.completed++
					} else {
						if out.NeedsHuman {
							c.escalated++
						}
						b.w.Inj.ClearFault(b.link)
					}
				}
				return c, nil
			},
		})
	}
	res, err := RunCells(r, cells)
	if err != nil {
		return nil, err
	}
	for i, div := range diversities {
		c := res[i]
		tab.AddRow(div, tasks, 100*float64(c.completed)/float64(tasks),
			100*float64(c.escalated)/float64(tasks))
	}
	return tab, nil
}
