// Pipeline: observe a run as its event stream and swap in a custom
// planning policy — the two extension points of the Sense→Triage→Plan→Act
// maintenance pipeline.
//
// The custom policy here is deliberately naive: it skips diagnosis and
// always swaps the transceiver at end A, escalating to a cable swap. The
// comparison against the built-in diagnosis-guided ladder shows why the
// Plan stage earns its keep.
package main

import (
	"fmt"
	"log"

	"repro/selfmaint"
)

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

func run(name string, opts ...selfmaint.Option) selfmaint.Report {
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

func main() {
	ladder := run("built-in ladder policy")
	naive := run("swap-first policy (no diagnosis)", selfmaint.WithPolicy(swapFirst{}))

	fmt.Printf("\n30-day comparison:\n")
	fmt.Printf("  ladder:     availability %.6f, mean window %v\n",
		ladder.FleetAvailability, ladder.MeanServiceWindow)
	fmt.Printf("  swap-first: availability %.6f, mean window %v\n",
		naive.FleetAvailability, naive.MeanServiceWindow)
}
