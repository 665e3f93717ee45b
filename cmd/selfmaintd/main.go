// selfmaintd is the self-maintenance controller daemon: it runs a full
// self-maintaining hall (telemetry → diagnosis → tickets → robots/humans)
// in accelerated virtual time, pacing the simulation against the wall
// clock, and serves an HTTP API for observation:
//
//	GET /status     — run summary (JSON)
//	GET /tickets    — ticket list (JSON)
//	GET /health     — observable link health (JSON)
//	GET /log        — the hub's retained controller decisions: the /events
//	                  rows whose topic is journal.decision (JSON)
//	GET /events     — the hub's retained pipeline bus events, all topics,
//	                  oldest first, as /v1/stream delta objects whose
//	                  payload is {"bus_seq":N,"text":"..."} (JSON)
//	GET /v1/stream  — streaming control plane: session handshake, then
//	                  snapshot + live deltas over SSE (see maintctl watch)
//	GET /v1/stats   — control-plane hub statistics and sessions (JSON)
//
// Usage:
//
//	selfmaintd -listen 127.0.0.1:7800 -pace 3600 &
//	curl -s 127.0.0.1:7800/status | head
//	maintctl watch -addr 127.0.0.1:7800
//
// pace is virtual seconds advanced per wall-clock second. With -record FILE
// the daemon streams its full event history to a flight recording; replay
// it with `maintctl replay FILE`.
//
// The read endpoints are served from the control-plane hub, whose frames
// the feed renders once per pacing step: /status, /tickets and /health from
// its materialized view, /events and /log from its retention ring (the
// window a resuming /v1/stream watcher can replay), and /v1/stats from the
// hub plus the virtual time and step count each step publishes. So no read
// waits for the simulation, and any number of /v1/stream watchers observe
// the run without perturbing it. Every exit path (signal, listener error,
// serve error) funnels through one shutdown sequence: stop the pacing
// ticker, drain HTTP with a deadline, then close the flight recording
// (trailer + fingerprint; an empty recording is deleted rather than left
// truncated).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/flightrec"
	"repro/internal/sim"
	"repro/selfmaint"
)

const (
	// shutdownTimeout bounds the graceful HTTP drain; connections still open
	// after it (streaming watchers, typically) are force-closed.
	shutdownTimeout = 5 * time.Second
	// A client whose request headers take longer than readHeaderTimeout, or
	// whose keep-alive connection idles for idleTimeout, is dropped.
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// config is the parsed and validated command line.
type config struct {
	listen    string
	level     int
	pace      float64
	accel     float64
	seed      uint64
	record    string
	tickEvery time.Duration
}

// parseFlags parses and validates args. Validation is up front and total:
// a daemon that would spin uselessly (zero pace), crash later (bad level)
// or serve nothing (empty listen address) refuses to start instead.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("selfmaintd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7800", "HTTP listen address")
	fs.IntVar(&cfg.level, "level", 4, "automation level 0-4")
	fs.Float64Var(&cfg.pace, "pace", 3600, "virtual seconds per wall second")
	fs.Float64Var(&cfg.accel, "accel", 20, "fault acceleration")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed")
	fs.StringVar(&cfg.record, "record", "", "write a flight recording of the run to this file")
	fs.DurationVar(&cfg.tickEvery, "tick", time.Second, "wall-clock pacing interval (mainly for tests)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.listen == "" {
		return cfg, errors.New("-listen must not be empty: give host:port to serve on")
	}
	if cfg.level < 0 || cfg.level > 4 {
		return cfg, fmt.Errorf("-level %d out of range: automation levels run 0 (human-only) to 4 (fully autonomous)", cfg.level)
	}
	if !(cfg.pace > 0) || math.IsInf(cfg.pace, 0) {
		return cfg, fmt.Errorf("-pace %g invalid: must be a positive, finite count of virtual seconds per wall second", cfg.pace)
	}
	if !(cfg.accel > 0) || math.IsInf(cfg.accel, 0) {
		return cfg, fmt.Errorf("-accel %g invalid: must be a positive, finite fault-rate multiplier", cfg.accel)
	}
	if cfg.tickEvery <= 0 {
		return cfg, fmt.Errorf("-tick %v invalid: must be a positive duration", cfg.tickEvery)
	}
	return cfg, nil
}

// daemon owns the paced simulation and everything serving it. The mutex
// guards stepping the cluster and closing the recording; the hub has its
// own lock, and no endpoint touches mu.
type daemon struct {
	cfg  config
	hub  *controlplane.Hub
	feed *selfmaint.Feed

	mu sync.Mutex
	c  *selfmaint.Cluster
	// now (a sim.Time) and steps are published at the end of each step for
	// /v1/stats and closeRecording.
	now   atomic.Int64
	steps atomic.Int64

	rec     *selfmaint.Recording
	recFile *os.File
	sum     *flightrec.Summary

	srv      *http.Server
	stopTick chan struct{}
	tickDone chan struct{}
	once     sync.Once
	shutErr  error
}

// newDaemon builds the cluster, hub, feed and (optionally) the flight
// recording. On error nothing is left behind: a created recording file is
// removed.
func newDaemon(cfg config) (*daemon, error) {
	c, err := selfmaint.NewCluster(
		selfmaint.WithSeed(cfg.seed),
		selfmaint.WithLevel(selfmaint.Level(cfg.level)),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
		selfmaint.WithFaultAcceleration(cfg.accel),
	)
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, c: c, hub: controlplane.NewHub(controlplane.Config{})}

	if cfg.record != "" {
		f, err := os.Create(cfg.record)
		if err != nil {
			return nil, err
		}
		rec, err := c.RecordTo(f, map[string]string{
			"tool":  "selfmaintd",
			"seed":  fmt.Sprintf("%d", cfg.seed),
			"level": fmt.Sprintf("L%d", cfg.level),
			"accel": fmt.Sprintf("%g", cfg.accel),
		}, sim.Hour)
		if err != nil {
			f.Close()
			os.Remove(cfg.record)
			return nil, err
		}
		d.rec, d.recFile = rec, f
	}

	// The feed publishes the initial keyed state immediately, so /status
	// and snapshots are complete before the first pacing step.
	d.feed = c.FeedControlPlane(d.hub)
	// No ReadTimeout or WriteTimeout: a /v1/stream answer is open-ended, and
	// a lapsed read deadline cancels the request's context.
	d.srv = &http.Server{Handler: d.routes(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	return d, nil
}

// step advances virtual time by dt and flushes the feed. The feed sync
// runs under mu — it reads the cluster — but all hub publishing inside it
// only takes the hub's own lock, which no simulation code path acquires.
func (d *daemon) step(dt sim.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.c.Run(dt)
	d.feed.Sync()
	d.now.Store(int64(d.c.Now()))
	d.steps.Add(1)
}

// startPacing launches the wall-clock ticker that drives the simulation.
func (d *daemon) startPacing() {
	d.stopTick = make(chan struct{})
	d.tickDone = make(chan struct{})
	go func() {
		defer close(d.tickDone)
		tick := time.NewTicker(d.cfg.tickEvery)
		defer tick.Stop()
		for {
			select {
			case <-d.stopTick:
				return
			case <-tick.C:
				d.step(sim.Time(d.cfg.pace * float64(sim.Second)))
			}
		}
	}()
}

// shutdown is the single exit path, idempotent and ordered: stop the
// pacing ticker (no step may race the drain), drain HTTP with a deadline
// (force-closing watchers that outlive it), then close the flight
// recording so the trailer and fingerprint land on disk. A recording with
// zero frames is deleted — a header-only file cannot be replayed and a
// truncated artifact is worse than none.
func (d *daemon) shutdown() error {
	d.once.Do(func() {
		if d.stopTick != nil {
			close(d.stopTick)
			<-d.tickDone
		}
		if d.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
			if err := d.srv.Shutdown(ctx); err != nil {
				d.srv.Close()
			}
			cancel()
		}
		d.shutErr = d.closeRecording()
	})
	return d.shutErr
}

func (d *daemon) closeRecording() error {
	if d.rec == nil {
		return nil
	}
	d.mu.Lock()
	sum, err := d.rec.Close()
	d.mu.Unlock()
	if cerr := d.recFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("closing recording: %w", err)
	}
	// Close always appends an end-of-run state frame, so Frames() is never
	// zero; "nothing was recorded" means no paced step ever ran. Such a
	// file documents nothing — remove it rather than leave an artifact that
	// looks like a run.
	if d.steps.Load() == 0 {
		if rerr := os.Remove(d.cfg.record); rerr != nil {
			return fmt.Errorf("removing empty recording: %w", rerr)
		}
		return nil
	}
	d.sum = sum
	return nil
}

func (d *daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", d.status)
	mux.HandleFunc("/tickets", d.tickets)
	mux.HandleFunc("/health", d.health)
	mux.HandleFunc("/log", d.decisionLog)
	mux.HandleFunc("/events", d.busEvents)
	mux.Handle("/v1/stream", d.hub.StreamHandler())
	mux.HandleFunc("/v1/stats", d.stats)
	return mux
}

// status serves the feed-rendered summary straight from the hub view: no
// simulation lock, no re-encoding.
func (d *daemon) status(w http.ResponseWriter, r *http.Request) {
	raw := d.hub.ViewPayload(controlplane.TopicStatus, "status")
	if raw == nil {
		http.Error(w, `{"error":"status not yet published"}`, http.StatusServiceUnavailable)
		return
	}
	writeRawJSON(w, raw)
}

// tickets serves the materialized ticket rows in id order.
func (d *daemon) tickets(w http.ResponseWriter, r *http.Request) {
	entries := d.hub.ViewEntries(controlplane.TopicTicket)
	// View order is lexicographic by key; ticket ids want numeric order.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Key, entries[j].Key
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	buf := make([]byte, 0, 64+128*len(entries))
	buf = append(buf, '[')
	for i, e := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, e.Data...)
	}
	buf = append(buf, ']')
	writeRawJSON(w, buf)
}

// health rebuilds the legacy {"down":[...],"flapping":[...]} shape from
// the cp.health view (recovered links are tombstoned out of it).
func (d *daemon) health(w http.ResponseWriter, r *http.Request) {
	out := map[string][]string{"down": {}, "flapping": {}}
	for _, e := range d.hub.ViewEntries(controlplane.TopicHealth) {
		var p struct {
			Health string `json:"health"`
		}
		if err := json.Unmarshal(e.Data, &p); err == nil {
			out[p.Health] = append(out[p.Health], e.Key)
		}
	}
	writeJSON(w, out)
}

// decisionLog serves the controller decisions the hub still retains,
// oldest first.
func (d *daemon) decisionLog(w http.ResponseWriter, r *http.Request) {
	writeRawJSON(w, d.hub.Events(controlplane.Topic(selfmaint.TopicDecision)))
}

// busEvents serves the bus events the hub still retains, oldest first.
func (d *daemon) busEvents(w http.ResponseWriter, r *http.Request) {
	writeRawJSON(w, d.hub.Events(""))
}

// stats reports the control-plane hub's counters and session registry.
func (d *daemon) stats(w http.ResponseWriter, r *http.Request) {
	dropped, coalesced := d.hub.DropsByTopic()
	writeJSON(w, map[string]any{
		"virtual_time":       sim.Time(d.now.Load()).String(),
		"steps":              d.steps.Load(),
		"hub":                d.hub.Stats(),
		"dropped_by_topic":   dropped,
		"coalesced_by_topic": coalesced,
		"sessions":           d.hub.Sessions(),
	})
}

// writeJSON marshals before touching the ResponseWriter, so an encoding
// failure can still become a 500 instead of a silently truncated 200.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("selfmaintd: encoding response: %v", err)
		http.Error(w, "internal error: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// writeRawJSON serves pre-encoded bytes. They may be shared (hub view
// payloads), so nothing here appends to them.
func writeRawJSON(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
	io.WriteString(w, "\n")
}

// run is the daemon lifecycle: validate, build, listen, pace, serve, and
// shut down through the single ordered path no matter which exit fired
// first. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "selfmaintd:", err)
		return 2
	}
	d, err := newDaemon(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "selfmaintd:", err)
		return 1
	}

	// Listen before serving so an unusable address fails here, with the
	// recording closed (and removed — nothing ran) instead of truncated.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fmt.Fprintln(stderr, "selfmaintd:", err)
		if serr := d.shutdown(); serr != nil {
			fmt.Fprintln(stderr, "selfmaintd:", serr)
		}
		return 1
	}
	fmt.Fprintf(stdout, "selfmaintd: L%d hall on %s, pacing %gx real time\n",
		cfg.level, ln.Addr(), cfg.pace)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	go func() { errc <- d.srv.Serve(ln) }()
	d.startPacing()

	var serveErr error
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "selfmaintd: %v, shutting down\n", sig)
	case serveErr = <-errc:
	}
	shutErr := d.shutdown()
	if serveErr == nil {
		serveErr = <-errc // Serve returns once Shutdown has drained it
	}

	code := 0
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "selfmaintd:", serveErr)
		code = 1
	}
	if shutErr != nil {
		fmt.Fprintln(stderr, "selfmaintd:", shutErr)
		code = 1
	}
	if d.sum != nil {
		fmt.Fprintf(stdout, "selfmaintd: recorded %d frames to %s (fingerprint %016x)\n",
			d.sum.Frames(), cfg.record, d.sum.Fingerprint())
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
