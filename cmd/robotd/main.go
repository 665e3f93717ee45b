// robotd is the robot-fleet agent daemon: it owns a (simulated) hall of
// hardware and a fleet of maintenance robots, and serves the paper's robot
// control API (§2) over HTTP — capability discovery, manipulation planning
// with contacted-cable pre-reports, task execution, health, and fault
// injection for demos. The routes are robotapi.Handler's.
//
// Pair it with maintctl:
//
//	robotd -listen 127.0.0.1:7700 &
//	maintctl -addr 127.0.0.1:7700 caps
//	maintctl -addr 127.0.0.1:7700 inject 3 contamination
//	maintctl -addr 127.0.0.1:7700 plan 3 A clean
//	maintctl -addr 127.0.0.1:7700 execute 3 A clean
//	curl -s 127.0.0.1:7700/v1/health
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/robotapi"
	"repro/internal/scenario"
	"repro/internal/topology"
)

const (
	// shutdownTimeout bounds the graceful HTTP drain; a request still running
	// after it (a long Execute, typically) has its connection force-closed.
	shutdownTimeout = 5 * time.Second
	// A client whose request headers take longer than readHeaderTimeout, or
	// whose keep-alive connection idles for idleTimeout, is dropped.
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// config is the parsed and validated command line.
type config struct {
	listen         string
	seed           uint64
	leaves, spines int
}

// parseFlags parses and validates args. An empty listen address would
// serve the fault-injection API on every interface at a random port, so
// it is refused.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("robotd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7700", "HTTP listen address")
	fs.Uint64Var(&cfg.seed, "seed", 1, "world seed")
	fs.IntVar(&cfg.leaves, "leaves", 8, "leaf switches in the hall")
	fs.IntVar(&cfg.spines, "spines", 2, "spine switches")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.listen == "" {
		return cfg, errors.New("-listen must not be empty: give host:port to serve on")
	}
	return cfg, nil
}

// run is the daemon lifecycle: validate, listen, build, serve, and on
// SIGINT/SIGTERM drain with a deadline (Shutdown returns once the requests
// in flight have finished). It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "robotd:", err)
		return 2
	}
	// Listen first, so an unusable address fails before any world is built.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fmt.Fprintln(stderr, "robotd:", err)
		return 1
	}
	w, err := scenario.Build(scenario.Options{
		Seed: cfg.seed,
		BuildNet: func() (*topology.Network, error) {
			return topology.NewLeafSpine(topology.LeafSpineConfig{
				Leaves: cfg.leaves, Spines: cfg.spines, HostsPerLeaf: 4,
				Uplinks: 1, FabricGbps: 400, HostGbps: 100,
			})
		},
		Level:        core.L3,
		Robots:       true,
		NoController: true,  // the remote caller is the controller
		FaultScale:   0.001, // near-quiescent; demo faults come via inject
	})
	if err != nil {
		ln.Close()
		fmt.Fprintln(stderr, "robotd:", err)
		return 1
	}
	// No ReadTimeout or WriteTimeout: an Execute answers only once its task
	// resolves, and a lapsed read deadline cancels the request's context.
	h := robotapi.Handler(robotapi.NewService(w.Eng, w.Net, w.Inj, w.Fleet))
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "robotd: serving robot API on %s (%d links, %d units)\n",
		ln.Addr(), len(w.Net.Links), len(w.Fleet.Units()))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-sig.Done():
		fmt.Fprintln(stdout, "robotd: shutting down")
	case err := <-errc: // Serve returns only with an error, having closed ln
		fmt.Fprintln(stderr, "robotd:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
