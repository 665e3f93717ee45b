// maintctl is the operator CLI for the robot control API served by robotd,
// plus the flight-recorder workflow, which needs no daemon.
//
// Daemon subcommands:
//
//	maintctl -addr HOST:PORT caps
//	maintctl -addr HOST:PORT health
//	maintctl -addr HOST:PORT inject  LINK CAUSE
//	maintctl -addr HOST:PORT plan    LINK END ACTION
//	maintctl -addr HOST:PORT execute LINK END ACTION
//
// Flight-recorder subcommands (local, no daemon):
//
//	maintctl record -o FILE [-seed N] [-level N] [-days N] [-accel X]
//	maintctl replay FILE
//	maintctl diff   FILE1 FILE2
//
// Streaming control plane (against selfmaintd):
//
//	maintctl watch -addr HOST:PORT [-topics a,b] [-resume TOKEN -last N]
//
// LINK is a numeric link id (see health output), END is A or B, ACTION is
// reseat | clean | replace-xcvr, CAUSE is a fault cause name.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/robotapi"
	"repro/internal/topology"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "robotd address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// The flight-recorder subcommands run locally, and watch has its own
	// flags; dispatch them before the robot API subcommands.
	switch args[0] {
	case "record":
		cmdRecord(args[1:])
		return
	case "replay":
		cmdReplay(args[1:])
		return
	case "diff":
		cmdDiff(args[1:])
		return
	case "watch":
		cmdWatch(args[1:])
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := robotapi.NewClient(*addr)

	switch args[0] {
	case "caps":
		caps, err := c.Capabilities(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("actions: %s\n", strings.Join(caps.Actions, ", "))
		for _, u := range caps.Units {
			state := "busy"
			if u.Available {
				state = "available"
			}
			fmt.Printf("unit %-12s scope=%-5s at row %d rack %d  %s\n", u.Name, u.Scope, u.Row, u.Rack, state)
		}
	case "topo":
		raw, err := c.Topology(ctx)
		if err != nil {
			fatal(err)
		}
		net, err := topology.DecodeNetwork(bytes.NewReader(raw))
		if err != nil {
			fatal(err)
		}
		st := net.Stats()
		fmt.Printf("%s: %d devices (%d switches), %d links (%d fabric), %.0fG total\n",
			net.Name, st.Devices, st.Switches, st.Links, st.FabricLinks, st.TotalGbps)
		for _, l := range net.SwitchLinks() {
			fmt.Printf("  link %-3d %-40s %-4s %4.0fG\n", l.ID, l.Name(), l.Cable.Class, l.GbpsCap)
		}
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d links: %d down, %d flapping\n", h.Links, len(h.Down), len(h.Flapping))
		for _, l := range h.Down {
			fmt.Println("  down:", l)
		}
		for _, l := range h.Flapping {
			fmt.Println("  flapping:", l)
		}
	case "inject":
		need(args, 3)
		if err := c.Inject(ctx, atoi(args[1]), args[2]); err != nil {
			fatal(err)
		}
		fmt.Println("fault injected")
	case "plan":
		need(args, 4)
		p, err := c.Plan(ctx, spec(args))
		if err != nil {
			fatal(err)
		}
		if !p.Feasible {
			fmt.Println("infeasible:", p.Reason)
			return
		}
		fmt.Printf("unit %s, estimated %.0fs\n", p.Unit, p.EstSeconds)
		fmt.Printf("will contact %d cable(s):\n", len(p.RiskNames))
		for _, n := range p.RiskNames {
			fmt.Println("  ", n)
		}
		fmt.Printf("tray mates: %d\n", p.TrayMates)
	case "execute":
		need(args, 4)
		r, err := c.Execute(ctx, spec(args))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("completed=%v fixed=%v needsHuman=%v stockout=%v in %.0fs (%d cascades), link now %s\n",
			r.Completed, r.Fixed, r.NeedsHuman, r.Stockout, r.Seconds, r.Cascades, r.LinkHealth)
		if r.Note != "" {
			fmt.Println("note:", r.Note)
		}
	default:
		usage()
	}
}

func spec(args []string) robotapi.TaskSpec {
	return robotapi.TaskSpec{Link: atoi(args[1]), End: args[2], Action: args[3]}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		fatal(fmt.Errorf("bad number %q", s))
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maintctl:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: maintctl [-addr HOST:PORT] COMMAND
  caps                      list units and robot-capable actions
  topo                      dump the hall topology (fabric links with ids)
  health                    observable link health
  inject  LINK CAUSE        force a fault (demo)
  plan    LINK END ACTION   pre-motion report: contacted cables, duration
  execute LINK END ACTION   run the repair task
flight recorder (local, no daemon):
  record -o FILE [-seed N] [-level N] [-days N] [-accel X]
                            simulate a cluster and record the event stream
  replay FILE               replay a recording; verify the fingerprint
  diff   FILE1 FILE2        locate the first divergent frame of two recordings
streaming control plane:
  watch [-addr HOST:PORT] [-topics LIST] [-n N] [-follow] [-raw]
                            tail a live selfmaintd: snapshot, then deltas`)
	os.Exit(2)
}
