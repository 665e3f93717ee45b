// dcsim runs a self-maintaining datacenter simulation from the command
// line and prints the maintenance report: the fastest way to see the
// framework end to end.
//
// Usage:
//
//	dcsim -topology leafspine -level 3 -days 365 -accel 20 -robots -techs 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/selfmaint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run simulates one command line's cluster, prints its report and returns
// the exit code: 2 for a usage error, 1 if the cluster cannot be built.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo   = fs.String("topology", "leafspine", "topology: leafspine, fattree, jellyfish, xpander, aicluster")
		level  = fs.Int("level", 3, "automation level 0-4 (SAE-style, paper §2.1)")
		days   = fs.Int("days", 365, "virtual days to simulate")
		seed   = fs.Uint64("seed", 1, "random seed (runs are reproducible per seed)")
		accel  = fs.Float64("accel", 20, "fault acceleration factor")
		robots = fs.Bool("robots", true, "deploy one robot unit per row")
		techs  = fs.Int("techs", 2, "human technicians on staff")
		log    = fs.Bool("log", false, "print the full ticket log")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	builders := map[string]func() (*selfmaint.Network, error){
		"leafspine": selfmaint.LeafSpine(16, 4, 4),
		"fattree":   selfmaint.FatTree(4),
		"jellyfish": selfmaint.Jellyfish(20, 8, 4, *seed),
		"xpander":   selfmaint.Xpander(9, 2, 4, *seed),
		"aicluster": selfmaint.AICluster(64, 8),
	}
	build, ok := builders[*topo]
	if !ok {
		fmt.Fprintf(stderr, "dcsim: unknown topology %q\n", *topo)
		return 2
	}
	if *level < 0 || *level > 4 {
		fmt.Fprintln(stderr, "dcsim: level must be 0-4")
		return 2
	}

	opts := []selfmaint.Option{
		selfmaint.WithTopology(build),
		selfmaint.WithSeed(*seed),
		selfmaint.WithLevel(selfmaint.Level(*level)),
		selfmaint.WithTechnicians(*techs),
		selfmaint.WithFaultAcceleration(*accel),
	}
	if *robots {
		opts = append(opts, selfmaint.WithRobots())
	}
	c, err := selfmaint.NewCluster(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "dcsim:", err)
		return 1
	}

	st := c.Network().Stats()
	fmt.Fprintf(stdout, "simulating %s: %d devices, %d links (%d fabric), L%d, %d days at x%g aging, seed %d\n",
		*topo, st.Devices, st.Links, st.FabricLinks, *level, *days, *accel, *seed)

	c.Run(selfmaint.Time(*days) * selfmaint.Day)

	fmt.Fprint(stdout, c.Report())
	if *log {
		fmt.Fprintln(stdout, "\nticket log:")
		for _, line := range c.TicketLog() {
			fmt.Fprintln(stdout, " ", line)
		}
	}
	return 0
}
