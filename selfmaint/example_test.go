//go:build amd64

// The examples print amd64 output, like TestQuickSuiteGolden.

package selfmaint_test

import (
	"fmt"
	"log"

	"repro/selfmaint"
)

// Build a self-maintaining hall at automation level L3, break a fabric
// link, and watch the control plane detect, diagnose and repair it in
// minutes — the paper's headline claim (§2) in thirty lines.
func ExampleNewCluster() {
	cluster, err := selfmaint.NewCluster(
		selfmaint.WithSeed(1),
		selfmaint.WithLevel(selfmaint.L3), // autonomous robots, humans for escalations
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	st := cluster.Network().Stats()
	fmt.Printf("hall: %d devices, %d links (%d fabric)\n", st.Devices, st.Links, st.FabricLinks)

	// Let the hall settle, then kill a transceiver on a fabric link.
	cluster.Run(1 * selfmaint.Hour)
	name, err := cluster.InjectFault(0, selfmaint.XcvrDead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%v: transceiver died on %s\n", cluster.Now(), name)

	// Give the self-maintenance loop a day of virtual time (it will need
	// only minutes).
	cluster.Run(1 * selfmaint.Day)

	fmt.Print(cluster.Report())
	fmt.Println("\nticket log:")
	for _, line := range cluster.TicketLog() {
		fmt.Println(" ", line)
	}

	// Output:
	// hall: 84 devices, 128 links (64 fabric)
	// t=01:00:00.000: transceiver died on leaf0/p4<->spine0/p0
	// after 1d 01:00:00.000:
	//   tickets: 1 opened, 1 resolved (mean window 00:07:04.006, p99 0.1h)
	//   availability: 0.999963 (0.1 down link-hours, 0.0 degraded)
	//   work: 3 robot tasks, 0 human tasks, 0 escalations, 2 cascades
	//
	// ticket log:
	//   [01:00:00.000] leaf0/p4<->spine0/p0 reactive resolved in 00:07:04.006 after 3 attempt(s) [fixed by robot-r1 via replace-xcvr]
}

// The paper's gray-failure story (§1, §3.2) end to end. Dirt on a fiber
// end-face makes a link flap; telemetry needs several episodes to flag it;
// the first repair is a reseat, which can mask the dirt and produce the
// classic repeat ticket; the repeat escalates straight to cleaning. The
// example prints the whole timeline, contrasting L0 (human) and L3
// (robotic) handling of the same incident.
func ExampleCluster_InjectFault() {
	for _, level := range []selfmaint.Level{selfmaint.L0, selfmaint.L3} {
		fmt.Printf("=== automation level %v ===\n", level)
		runFlapping(level)
		fmt.Println()
	}

	// Output:
	// === automation level L0 ===
	// t=10:00:00.000: dirt on an end-face of leaf0/p6<->spine2/p0 (link now flaps intermittently)
	//   [11:16:52.788] leaf0/p6<->spine2/p0 reactive resolved in 03:01:34.239 after 2 attempt(s) [fixed by tech-0 via clean]
	// degraded link-hours: 3.9, mean service window: 03:01:34.239
	//
	// === automation level L3 ===
	// t=10:00:00.000: dirt on an end-face of leaf0/p6<->spine2/p0 (link now flaps intermittently)
	//   [11:16:52.788] leaf0/p6<->spine2/p0 reactive resolved in 00:05:00.100 after 2 attempt(s) [fixed by robot-r1 via clean]
	// degraded link-hours: 1.3, mean service window: 00:05:00.100
}

func runFlapping(level selfmaint.Level) {
	cluster, err := selfmaint.NewCluster(
		selfmaint.WithSeed(11),
		selfmaint.WithLevel(level),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Contaminate a fabric link's end-face at the 10h mark.
	cluster.Run(10 * selfmaint.Hour)
	name, err := cluster.InjectFault(2, selfmaint.Contamination)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%v: dirt on an end-face of %s (link now flaps intermittently)\n",
		cluster.Now(), name)

	// Run two weeks: enough for flap detection, the reseat-first repair, a
	// possible masked recurrence, and the escalated cleaning.
	cluster.Run(14 * selfmaint.Day)

	for _, line := range cluster.TicketLog() {
		fmt.Println(" ", line)
	}
	rep := cluster.Report()
	fmt.Printf("degraded link-hours: %.1f, mean service window: %v\n",
		rep.DegradedLinkHours, rep.MeanServiceWindow)
}

// Proactive maintenance, the paper's §4 vision: "if several links on a
// switch have been fixed by reseating transceivers, the system could
// proactively reseat all transceivers on that switch". This example runs
// the same accelerated year twice, with and without the L4 proactive and
// predictive machinery, and compares fault counts, availability and the
// robot-hours the proactive work cost.
func ExampleLevel() {
	type outcome struct {
		name   string
		report selfmaint.Report
	}
	var results []outcome
	for _, mode := range []struct {
		name  string
		level selfmaint.Level
	}{
		{"reactive only (L3)", selfmaint.L3},
		{"proactive + predictive (L4)", selfmaint.L4},
	} {
		cluster, err := selfmaint.NewCluster(
			selfmaint.WithSeed(23),
			selfmaint.WithLevel(mode.level),
			selfmaint.WithRobots(),
			selfmaint.WithTechnicians(2),
			selfmaint.WithFaultAcceleration(25),
		)
		if err != nil {
			log.Fatal(err)
		}
		cluster.Run(1 * selfmaint.Year)
		results = append(results, outcome{mode.name, cluster.Report()})
	}

	fmt.Printf("%-30s %10s %12s %12s %10s\n", "policy", "reactive", "availability", "down-hours", "proactive")
	reactive := func(r selfmaint.Report) int {
		return r.TicketsOpened - r.ProactiveTasks - r.PredictiveTasks
	}
	for _, r := range results {
		fmt.Printf("%-30s %10d %12.6f %12.1f %10d\n",
			r.name, reactive(r.report), r.report.FleetAvailability,
			r.report.DownLinkHours, r.report.ProactiveTasks+r.report.PredictiveTasks)
	}
	base, pro := results[0].report, results[1].report
	fmt.Printf("\nproactive+predictive maintenance: %.0f%% fewer reactive incidents at the cost of %d background tasks\n",
		100*(1-float64(reactive(pro))/float64(reactive(base))), pro.ProactiveTasks+pro.PredictiveTasks)

	// Output:
	// policy                           reactive availability   down-hours  proactive
	// reactive only (L3)                    449     0.998653       1044.2          0
	// proactive + predictive (L4)           368     0.998397       1229.3        687
	//
	// proactive+predictive maintenance: 18% fewer reactive incidents at the cost of 687 background tasks
}

// The paper's §4 question — "can we create a metric for
// self-maintainability of a network design?" — answered for four fabrics
// at a comparable switch budget. Expander graphs (Jellyfish, Xpander) win
// raw efficiency; Clos designs win robotic maintainability; and the
// components show exactly where the gap comes from (wiring regularity,
// tray congestion, panel clarity).
func ExampleEvaluateMaintainability() {
	builds := []struct {
		name  string
		build func() (*selfmaint.Network, error)
	}{
		{"fat-tree k=4", selfmaint.FatTree(4)},
		{"leaf-spine 16x4", selfmaint.LeafSpine(16, 4, 4)},
		{"jellyfish n=20 r=8", selfmaint.Jellyfish(20, 8, 4, 3)},
		{"xpander d=9 k=2", selfmaint.Xpander(9, 2, 4, 3)},
	}

	fmt.Printf("%-20s %7s %6s %6s %6s %6s %6s %6s %6s\n",
		"topology", "index", "local", "clar", "tray", "runs", "drain", "reg", "tput")
	for _, b := range builds {
		net, err := b.build()
		if err != nil {
			log.Fatal(err)
		}
		r := selfmaint.EvaluateMaintainability(net)
		c := r.Components
		fmt.Printf("%-20s %7.1f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.3f\n",
			b.name, r.Index, c.Locality, c.PortClarity, c.TrayHeadroom,
			c.ShortRuns, c.DrainTolerance, c.Regularity, r.ThroughputNorm)
	}

	fmt.Println("\nindex: composite self-maintainability (0-100, higher = friendlier to robots)")
	fmt.Println("the paper's bet (§4): robotic deployment+maintenance eventually closes the")
	fmt.Println("regularity gap, making the efficient-but-irregular fabrics deployable.")

	// Output:
	// topology               index  local   clar   tray   runs  drain    reg   tput
	// fat-tree k=4            77.4   0.50   0.49   0.81   0.84   1.00   0.81  0.500
	// leaf-spine 16x4         62.8   0.50   0.40   0.47   0.74   1.00   0.47  0.500
	// jellyfish n=20 r=8      57.8   0.29   0.33   0.21   0.77   1.00   0.47  0.500
	// xpander d=9 k=2         55.5   0.29   0.31   0.10   0.78   1.00   0.47  0.500
	//
	// index: composite self-maintainability (0-100, higher = friendlier to robots)
	// the paper's bet (§4): robotic deployment+maintenance eventually closes the
	// regularity gap, making the efficient-but-irregular fabrics deployable.
}

// Observe a run as its event stream and swap in a custom planning policy —
// the two extension points of the Sense→Triage→Plan→Act maintenance
// pipeline.
//
// The custom policy here is deliberately naive: it skips diagnosis and
// always swaps the transceiver at end A, escalating to a cable swap. The
// comparison against the built-in diagnosis-guided ladder shows why the
// Plan stage earns its keep.
func ExampleWithPolicy() {
	ladder := runPolicy("built-in ladder policy")
	naive := runPolicy("swap-first policy (no diagnosis)", selfmaint.WithPolicy(swapFirst{}))

	fmt.Printf("\n30-day comparison:\n")
	fmt.Printf("  ladder:     availability %.6f, mean window %v\n",
		ladder.FleetAvailability, ladder.MeanServiceWindow)
	fmt.Printf("  swap-first: availability %.6f, mean window %v\n",
		naive.FleetAvailability, naive.MeanServiceWindow)

	// Output:
	// built-in ladder policy:
	//   [2d 09:15:24.599] dispatch{T0 leaf7/p7<->spine3/p7 robot reseat@A by robot-r1}
	//   [2d 09:16:35.722] dispatch{T0 leaf7/p7<->spine3/p7 human reseat@A by tech-0}
	//   [4d 12:28:57.333] dispatch{T1 leaf6-srv1/p0<->leaf6/p1 human replace-cable@B by tech-0}
	//   events: 62 alerts, 62 ticket, 49 dispatch, 49 outcome
	// swap-first policy (no diagnosis):
	//   [2d 09:15:24.599] dispatch{T0 leaf7/p7<->spine3/p7 robot replace-xcvr@A by robot-r1}
	//   [2d 09:16:35.722] dispatch{T0 leaf7/p7<->spine3/p7 human replace-xcvr@A by tech-0}
	//   [4d 12:28:57.333] dispatch{T1 leaf6-srv1/p0<->leaf6/p1 robot replace-xcvr@A by robot-r1}
	//   events: 115 alerts, 115 ticket, 629 dispatch, 629 outcome
	//
	// 30-day comparison:
	//   ladder:     availability 0.998928, mean window 03:41:22.807
	//   swap-first: availability 0.964617, mean window 2d 13:50:12.693
}

// swapFirst is a Policy that never diagnoses: replace the A-end
// transceiver, then the cable, then repeat.
type swapFirst struct{}

func (swapFirst) Decide(t *selfmaint.Ticket, stage int) selfmaint.Decision {
	a := selfmaint.ReplaceXcvr
	if stage%2 == 1 {
		a = selfmaint.ReplaceCable
	}
	return selfmaint.Decision{Action: a, End: selfmaint.EndA, Stage: stage}
}

// ImpactSet drains only the target link — no disturbance model, so
// neighbouring cables are manipulated hot.
func (swapFirst) ImpactSet(target *selfmaint.Link, port *selfmaint.Port) []selfmaint.LinkID {
	return []selfmaint.LinkID{target.ID}
}

func runPolicy(name string, opts ...selfmaint.Option) selfmaint.Report {
	base := []selfmaint.Option{
		selfmaint.WithSeed(7),
		selfmaint.WithLevel(selfmaint.L3),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
		selfmaint.WithFaultAcceleration(20),
	}
	c, err := selfmaint.NewCluster(append(base, opts...)...)
	if err != nil {
		log.Fatal(err)
	}

	// Tap the bus: count events per topic, and echo the first few dispatches
	// so the pipeline is visible in motion.
	byTopic := map[selfmaint.Topic]int{}
	shown := 0
	c.TapEvents(func(ev selfmaint.Event) {
		byTopic[ev.Topic]++
		if ev.Topic == selfmaint.TopicDispatch && shown < 3 {
			shown++
			fmt.Printf("  [%v] %s\n", ev.At, selfmaint.EventText(ev))
		}
	})

	fmt.Printf("%s:\n", name)
	c.Run(30 * selfmaint.Day)
	fmt.Printf("  events: %d alerts, %d ticket, %d dispatch, %d outcome\n",
		byTopic[selfmaint.TopicAlert], byTopic[selfmaint.TopicTicket],
		byTopic[selfmaint.TopicDispatch], byTopic[selfmaint.TopicOutcome])
	return c.Report()
}
