// Liveapi: the robot control API (§2) over real HTTP — the programmatic
// version of the robotd/maintctl pair. It serves robotapi.Handler on its own
// listener, points a client at it, and walks the cross-layer workflow
// the paper describes: discover capabilities, inject a fault, ask for a
// manipulation plan (which pre-reports the cables the robot will contact),
// then execute and verify.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/robotapi"
	"repro/internal/scenario"
)

func main() {
	// A quiescent hall with a robot fleet, no embedded controller: the
	// remote client plays controller.
	world, err := scenario.Build(scenario.Options{
		Seed:         1,
		BuildNet:     scenario.SmallHall,
		Level:        core.L3,
		Robots:       true,
		NoController: true,
		FaultScale:   0.001,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := robotapi.NewService(world.Eng, world.Net, world.Inj, world.Fleet)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, robotapi.Handler(svc))
	fmt.Println("robot API listening on", ln.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := robotapi.NewClient(ln.Addr().String())

	caps, err := client.Capabilities(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d unit(s), robotic actions: %v\n", len(caps.Units), caps.Actions)

	// Find a separable fabric link and contaminate it.
	linkID := -1
	for _, l := range world.Net.SwitchLinks() {
		if l.HasSeparableFiber() {
			linkID = int(l.ID)
			break
		}
	}
	if err := client.Inject(ctx, linkID, "contamination"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected contamination on link %d\n", linkID)

	health, err := client.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("health: %d down, %d flapping\n", len(health.Down), len(health.Flapping))

	// The cross-layer moment: before any motion, the plan reports exactly
	// which cables the manipulation will contact, so a controller can drain
	// them (§2).
	for _, end := range []string{"A", "B"} {
		plan, err := client.Plan(ctx, robotapi.TaskSpec{Link: linkID, End: end, Action: "clean"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan clean@%s: unit=%s est=%.0fs, will contact %d cable(s), %d tray mates\n",
			end, plan.Unit, plan.EstSeconds, len(plan.CablesAtRisk), plan.TrayMates)

		res, err := client.Execute(ctx, robotapi.TaskSpec{Link: linkID, End: end, Action: "clean"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("execute clean@%s: completed=%v fixed=%v in %.0fs, link %s\n",
			end, res.Completed, res.Fixed, res.Seconds, res.LinkHealth)
		if res.Fixed && res.LinkHealth == "healthy" {
			break // cleaned the right end
		}
	}

	health, _ = client.Health(ctx)
	fmt.Printf("final health: %d down, %d flapping\n", len(health.Down), len(health.Flapping))
}
