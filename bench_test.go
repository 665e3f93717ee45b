// Package repro_bench exposes every experiment of EXPERIMENTS.md as a
// benchmark target (one per paper table/figure, quick parameters) plus
// micro-benchmarks of the substrates. Regenerate the full-size artifacts
// with cmd/experiments; run these with:
//
//	go test -bench=. -benchmem
package repro_bench

import (
	"context"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/robotapi"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/selfmaint"
)

func quick() scenario.RepairParams {
	p := scenario.QuickRepairParams()
	p.Seeds = []uint64{7}
	p.Duration = 45 * sim.Day
	return p
}

// BenchmarkServiceWindow regenerates T1/F1: service windows by automation
// level.
func BenchmarkServiceWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.T1ServiceWindow(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEscalationLadder regenerates T2: ladder outcome shares.
func BenchmarkEscalationLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T2Escalation(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutomationLevels regenerates F2: availability vs level.
func BenchmarkAutomationLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.F2Availability(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCascadeMitigation regenerates F3: cascade amplification by
// repair policy (the impact-aware pre-drain ablation).
func BenchmarkCascadeMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.F3Cascades(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProactive regenerates T3: proactive/predictive policy ablation.
func BenchmarkProactive(b *testing.B) {
	p := quick()
	p.Duration = 90 * sim.Day
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T3Proactive(scenario.Serial(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictor regenerates T4: failure-predictor quality.
func BenchmarkPredictor(b *testing.B) {
	p := quick()
	p.Duration = 120 * sim.Day
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T4Predictor(scenario.Serial(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRightProvisioning regenerates T5: redundancy vs repair regime.
func BenchmarkRightProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T5RightProvisioning(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainabilityIndex regenerates F4: the topology tradeoff.
func BenchmarkMaintainabilityIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.F4Maintainability(scenario.Serial()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSizing regenerates F5: window/backlog vs robot count.
func BenchmarkFleetSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := scenario.F5FleetSizing(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobotPrimitives regenerates T6: robot task micro-timings.
func BenchmarkRobotPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T6RobotTimings(scenario.Serial(), 40, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlapTailLatency regenerates F6: tail latency during a flapping
// incident.
func BenchmarkFlapTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.F6FlapLatency(scenario.Serial(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAICluster regenerates T7: GPU-hours lost vs repair regime.
func BenchmarkAICluster(b *testing.B) {
	p := quick()
	p.Duration = 90 * sim.Day
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T7AICluster(scenario.Serial(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiversity regenerates T8: task success vs hardware diversity.
func BenchmarkDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.T8Diversity(scenario.Serial(), 80, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatWindowAblation regenerates A1: dedup-window sensitivity.
func BenchmarkRepeatWindowAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.A1RepeatWindow(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMobilityScopeAblation regenerates A2: rack/row/hall scopes.
func BenchmarkMobilityScopeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.A2MobilityScope(scenario.Serial(), quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkSimulatedDay measures raw simulation throughput: one virtual day
// of a busy L3 hall per iteration.
func BenchmarkSimulatedDay(b *testing.B) {
	c, err := selfmaint.NewCluster(
		selfmaint.WithSeed(1),
		selfmaint.WithLevel(selfmaint.L3),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
		selfmaint.WithFaultAcceleration(50),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Run(selfmaint.Day)
	}
}

// BenchmarkBusDispatch measures the pipeline bus's publish path: one event
// stamped and delivered synchronously to a tap plus four topic subscribers
// — the hot path every alert, ticket event and dispatch crosses.
func BenchmarkBusDispatch(b *testing.B) {
	eng := sim.NewEngine(1)
	pb := bus.New(eng)
	var sink int
	pb.Tap(func(bus.Event) { sink++ })
	for i := 0; i < 4; i++ {
		pb.Subscribe(bus.TopicAlert, func(bus.Event) { sink++ })
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pb.Publish(bus.TopicAlert, bus.Alert{})
	}
	_ = sink
}

// BenchmarkPipelineDay measures one virtual day flowing through the full
// Sense→Triage→Plan→Act pipeline (L4: reactive, proactive and predictive
// stages all live) and reports the bus traffic it generates.
func BenchmarkPipelineDay(b *testing.B) {
	w, err := scenario.Build(scenario.Options{
		Seed: 1, Level: core.L4, Robots: true, Techs: 2, FaultScale: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	w.Bus.Tap(func(bus.Event) { events++ })
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Run(w.Eng.Now() + sim.Day)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/day")
}

// BenchmarkRoutingEvaluate measures one full traffic-matrix evaluation on
// the standard hall.
func BenchmarkRoutingEvaluate(b *testing.B) {
	net, err := scenario.StandardHall()
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(net, nil)
	tm := routing.UniformMatrix(net, 1000)
	var ws routing.Workspace
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Invalidate() // force cold caches: the worst case after a failure
		_ = r.EvaluateInto(&ws, tm)
	}
}

// BenchmarkEvaluateSteadyState measures the per-cell hot loop: repeated
// assessment of an unchanged fabric through a reusable workspace. The
// routing tier-1 tests pin this path at zero allocations per op.
func BenchmarkEvaluateSteadyState(b *testing.B) {
	net, err := scenario.StandardHall()
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(net, nil)
	tm := routing.UniformMatrix(net, 1000)
	var ws routing.Workspace
	r.EvaluateInto(&ws, tm) // warm caches and grow buffers
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.EvaluateInto(&ws, tm)
	}
}

// BenchmarkRouterFlapChurn measures re-assessment cost while one fabric
// link flaps up and down, comparing targeted per-link invalidation against
// a blanket cache flush on a k=8 fat-tree. The incremental case only
// recomputes destinations whose shortest paths crossed the flapping link.
func BenchmarkRouterFlapChurn(b *testing.B) {
	net, err := topology.NewFatTree(topology.DefaultFatTree(8))
	if err != nil {
		b.Fatal(err)
	}
	down := map[topology.LinkID]bool{}
	health := func(id topology.LinkID) bool { return !down[id] }
	l := net.SwitchLinks()[0]
	run := func(b *testing.B, invalidate func(r *routing.Router)) {
		down[l.ID] = false
		r := routing.NewRouter(net, health)
		tm := routing.UniformMatrix(net, 4000)
		var ws routing.Workspace
		r.EvaluateInto(&ws, tm) // warm
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			down[l.ID] = !down[l.ID]
			invalidate(r)
			_ = r.EvaluateInto(&ws, tm)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		run(b, func(r *routing.Router) { r.InvalidateLink(l.ID) })
	})
	b.Run("blanket", func(b *testing.B) {
		run(b, func(r *routing.Router) { r.Invalidate() })
	})
}

// BenchmarkRouterDrainBurst measures the controller's drain-before-touch
// path on a warm fat-tree k=12 router (uniform matrix evaluated once): each
// iteration drains four fabric links on adjacent ports of one aggregation
// switch — the shape of Act.preDrain's impact set, the touched cable plus
// the cables within the robot's touch radius — and undrains them again.
func BenchmarkRouterDrainBurst(b *testing.B) {
	net, err := topology.NewFatTree(topology.DefaultFatTree(12))
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(net, nil)
	var ws routing.Workspace
	r.EvaluateInto(&ws, routing.UniformMatrix(net, 1000))
	var burst []topology.LinkID
	for _, p := range net.DevicesOfKind(topology.AggSwitch)[0].Ports {
		if p.Link != nil && len(burst) < 4 {
			burst = append(burst, p.Link.ID)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range burst {
			r.Drain(id)
		}
		for _, id := range burst {
			r.Undrain(id)
		}
	}
}

// BenchmarkUniformEvaluate measures full-injection uniform evaluation on
// the F4 xpander build — the maintindex probe that dominated the quick
// suite before the destination-rooted engine. Sub-benchmarks cover the cold
// path (every destination rebuilt), the maintindex-style drain/undrain
// sweep step (shelved structures restore via the subgraph signature), the
// warm steady state (zero allocations), and the cold path on a fat-tree
// k=12 at 1,000 Gbps — hall-large's daily availability sample.
func BenchmarkUniformEvaluate(b *testing.B) {
	net, err := topology.NewXpander(topology.XpanderConfig{
		Degree: 9, Lift: 2, HostsPerSwitch: 8,
		FabricGbps: 100, HostGbps: 100, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	var offered float64
	for _, h := range net.Hosts() {
		for _, p := range h.Ports {
			if p.Link != nil {
				offered += p.Link.GbpsCap
			}
		}
	}
	tm := routing.UniformMatrix(net, offered)
	b.Run("cold", func(b *testing.B) { benchCold(b, net, tm) })
	b.Run("drain-sweep-step", func(b *testing.B) {
		r := routing.NewRouter(net, nil)
		var ws routing.Workspace
		l := net.SwitchLinks()[0]
		r.EvaluateInto(&ws, tm) // warm
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Drain(l.ID)
			_ = r.EvaluateInto(&ws, tm)
			r.Undrain(l.ID)
			_ = r.EvaluateInto(&ws, tm)
		}
	})
	b.Run("warm", func(b *testing.B) {
		r := routing.NewRouter(net, nil)
		var ws routing.Workspace
		r.EvaluateInto(&ws, tm)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = r.EvaluateInto(&ws, tm)
		}
	})
	b.Run("cold-fattree-k12", func(b *testing.B) {
		ft, err := topology.NewFatTree(topology.DefaultFatTree(12))
		if err != nil {
			b.Fatal(err)
		}
		benchCold(b, ft, routing.UniformMatrix(ft, 1000))
	})
}

// benchCold evaluates tm with every destination rebuilt on recycled arenas.
// Each iteration moves one drain around three host links (drain the next,
// undrain the previous): a host link is tight toward every destination, so
// every structure is displaced, and with three links no subgraph recurs
// while the one-slot shelf still holds it — nothing is restored.
func benchCold(b *testing.B, net *topology.Network, tm routing.TrafficMatrix) {
	hosts := net.Hosts()
	var ring [3]topology.LinkID
	for i := range ring {
		ring[i] = hosts[i].Ports[0].Link.ID
	}
	r := routing.NewRouter(net, nil)
	var ws routing.Workspace
	move := func(i int) {
		r.Drain(ring[(i+1)%3])
		r.Undrain(ring[i%3])
		_ = r.EvaluateInto(&ws, tm)
	}
	r.Drain(ring[0])
	for i := 0; i < 3; i++ {
		move(i) // fill the shelf and the free lists
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		move(i)
	}
}

// BenchmarkTopologyBuild measures fabric construction.
func BenchmarkTopologyBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewFatTree(topology.DefaultFatTree(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireProtocol regenerates F7: robot-API round trips over TCP
// loopback (plan requests, which carry the contacted-cable report).
func BenchmarkWireProtocol(b *testing.B) {
	w, err := scenario.Build(scenario.Options{
		Seed: 1, BuildNet: scenario.SmallHall,
		Robots: true, NoController: true, FaultScale: 0.001,
	})
	if err != nil {
		b.Fatal(err)
	}
	svc := robotapi.NewService(w.Eng, w.Net, w.Inj, w.Fleet)
	srv, err := robotapi.Serve("127.0.0.1:0", svc)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	c, err := robotapi.DialClient(ctx, srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	link := int(w.Net.SwitchLinks()[0].ID)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Plan(ctx, robotapi.TaskSpec{Link: link, End: "A", Action: "reseat"}); err != nil {
			b.Fatal(err)
		}
	}
}
