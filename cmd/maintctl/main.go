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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/robotapi"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit code: 2 for a usage
// error, 1 for any other error, and diff's own 0, 1 or 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maintctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7700", "robotd address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	args = fs.Args()
	if len(args) == 0 {
		return usage(stderr)
	}

	// The flight-recorder subcommands run locally, and watch has its own
	// flags; dispatch them before the robot API subcommands.
	switch args[0] {
	case "record":
		return cmdRecord(args[1:], stdout, stderr)
	case "replay":
		return cmdReplay(args[1:], stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	case "watch":
		return cmdWatch(args[1:], stdout, stderr)
	}

	// Each robot API subcommand's argument count, itself included; the
	// ones with arguments take LINK first.
	argc, ok := map[string]int{"caps": 1, "topo": 1, "health": 1, "inject": 3, "plan": 4, "execute": 4}[args[0]]
	if !ok || len(args) < argc {
		return usage(stderr)
	}
	link := 0
	if argc > 1 {
		var err error
		if link, err = strconv.Atoi(args[1]); err != nil {
			return fail(stderr, fmt.Errorf("bad number %q", args[1]))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := remote(ctx, robotapi.NewClient(*addr), args, link, stdout); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// remote runs one robot API subcommand, whose arguments run has checked.
func remote(ctx context.Context, c *robotapi.Client, args []string, link int, stdout io.Writer) error {
	switch args[0] {
	case "caps":
		caps, err := c.Capabilities(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "actions: %s\n", strings.Join(caps.Actions, ", "))
		for _, u := range caps.Units {
			state := "busy"
			if u.Available {
				state = "available"
			}
			fmt.Fprintf(stdout, "unit %-12s scope=%-5s at row %d rack %d  %s\n", u.Name, u.Scope, u.Row, u.Rack, state)
		}
	case "topo":
		raw, err := c.Topology(ctx)
		if err != nil {
			return err
		}
		net, err := topology.DecodeNetwork(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		st := net.Stats()
		fmt.Fprintf(stdout, "%s: %d devices (%d switches), %d links (%d fabric), %.0fG total\n",
			net.Name, st.Devices, st.Switches, st.Links, st.FabricLinks, st.TotalGbps)
		for _, l := range net.SwitchLinks() {
			fmt.Fprintf(stdout, "  link %-3d %-40s %-4s %4.0fG\n", l.ID, l.Name(), l.Cable.Class, l.GbpsCap)
		}
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d links: %d down, %d flapping\n", h.Links, len(h.Down), len(h.Flapping))
		for _, l := range h.Down {
			fmt.Fprintln(stdout, "  down:", l)
		}
		for _, l := range h.Flapping {
			fmt.Fprintln(stdout, "  flapping:", l)
		}
	case "inject":
		if err := c.Inject(ctx, link, args[2]); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "fault injected")
	case "plan":
		p, err := c.Plan(ctx, robotapi.TaskSpec{Link: link, End: args[2], Action: args[3]})
		if err != nil {
			return err
		}
		if !p.Feasible {
			fmt.Fprintln(stdout, "infeasible:", p.Reason)
			return nil
		}
		fmt.Fprintf(stdout, "unit %s, estimated %.0fs\n", p.Unit, p.EstSeconds)
		fmt.Fprintf(stdout, "will contact %d cable(s):\n", len(p.RiskNames))
		for _, n := range p.RiskNames {
			fmt.Fprintln(stdout, "  ", n)
		}
		fmt.Fprintf(stdout, "tray mates: %d\n", p.TrayMates)
	case "execute":
		r, err := c.Execute(ctx, robotapi.TaskSpec{Link: link, End: args[2], Action: args[3]})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "completed=%v fixed=%v needsHuman=%v stockout=%v in %.0fs (%d cascades), link now %s\n",
			r.Completed, r.Fixed, r.NeedsHuman, r.Stockout, r.Seconds, r.Cascades, r.LinkHealth)
		if r.Note != "" {
			fmt.Fprintln(stdout, "note:", r.Note)
		}
	}
	return nil
}

// fail reports err and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "maintctl:", err)
	return 1
}

// flagExit is the exit code for a flag parse error, as flag.ExitOnError
// sets it: 0 after -h, 2 otherwise.
func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// usage prints the command summary and returns exit code 2.
func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: maintctl [-addr HOST:PORT] COMMAND
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
	return 2
}
