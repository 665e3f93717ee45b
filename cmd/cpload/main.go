// cpload is the control-plane load harness: it proves the streaming
// control plane holds N concurrent watchers against a live paced
// simulation at bounded memory, without perturbing the simulation.
//
// The harness runs the same seeded scenario twice — once with zero
// watchers, once with -watchers SSE subscribers attached over an in-memory
// transport — stepping virtual time identically and flight-recording both
// runs. It then asserts:
//
//   - the two recordings are byte-identical (watchers are observability,
//     never a results knob);
//   - peak heap stays under -heap-mb during the watched run;
//   - backpressure did its job: slow watchers (a -slow-frac cohort that
//     stops reading after the handshake) accumulate drop/coalesce counts
//     instead of stalling the publisher.
//
// The in-memory transport (net.Pipe behind a net.Listener) removes file
// descriptor limits from the equation: 10k watchers need 10k goroutine
// pairs, not 10k sockets.
//
// Usage:
//
//	cpload -watchers 10000 -steps 20 -heap-mb 512
//	cpload -watchers 1000 -steps 10 -bench-json BENCH_experiments.json
//
// Exit status is 0 only when every assertion holds; the summary JSON on
// stdout carries the measured numbers either way.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/selfmaint"
)

type config struct {
	watchers  int
	slowFrac  float64
	steps     int
	pace      float64 // virtual seconds per step
	level     int
	accel     float64
	seed      uint64
	heapMB    int
	queueCap  int
	benchJSON string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.watchers, "watchers", 10000, "concurrent stream subscribers")
	flag.Float64Var(&cfg.slowFrac, "slow-frac", 0.05, "fraction of watchers that stop reading after the handshake")
	flag.IntVar(&cfg.steps, "steps", 30, "paced simulation steps")
	flag.Float64Var(&cfg.pace, "pace", 21600, "virtual seconds per step")
	flag.IntVar(&cfg.level, "level", 4, "automation level 0-4")
	flag.Float64Var(&cfg.accel, "accel", 30, "fault acceleration")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed")
	flag.IntVar(&cfg.heapMB, "heap-mb", 512, "peak heap ceiling (MiB) during the watched run")
	flag.IntVar(&cfg.queueCap, "queue-cap", 0, "per-watcher queue capacity (0 = hub default); small caps force drop-oldest")
	flag.StringVar(&cfg.benchJSON, "bench-json", "", "upsert the watched run's wall time as experiment \"cpload\" in this BENCH artifact")
	flag.Parse()

	// Trade a little CPU for a tighter heap: with GOGC at its default the
	// peak doubles the live set, which is exactly what the -heap-mb
	// assertion is trying to bound.
	debug.SetGCPercent(30)

	if err := runLoad(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpload:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable result printed on stdout.
type summary struct {
	Watchers       int     `json:"watchers"`
	SlowWatchers   int     `json:"slow_watchers"`
	Steps          int     `json:"steps"`
	VirtualHours   float64 `json:"virtual_hours"`
	WallSeconds    float64 `json:"wall_seconds"`
	Published      uint64  `json:"frames_published"`
	Delivered      uint64  `json:"frames_delivered"`
	DropsReports   uint64  `json:"drops_reports_seen"`
	Dropped        uint64  `json:"dropped"`
	Coalesced      uint64  `json:"coalesced"`
	PeakHeapMB     float64 `json:"peak_heap_mb"`
	HeapCeilingMB  int     `json:"heap_ceiling_mb"`
	DigestBare     string  `json:"digest_bare"`
	DigestWatched  string  `json:"digest_watched"`
	TranscriptSame bool    `json:"transcript_identical"`
}

func runLoad(cfg config, out io.Writer) error {
	bare, err := runOnce(cfg, 0, nil)
	if err != nil {
		return fmt.Errorf("bare run: %w", err)
	}
	s := &summary{Watchers: cfg.watchers, Steps: cfg.steps,
		VirtualHours: float64(cfg.steps) * cfg.pace / 3600, HeapCeilingMB: cfg.heapMB}
	watched, err := runOnce(cfg, cfg.watchers, s)
	if err != nil {
		return fmt.Errorf("watched run: %w", err)
	}

	s.DigestBare, s.DigestWatched = bare, watched
	s.TranscriptSame = bare == watched
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}

	if cfg.benchJSON != "" {
		// The watched run's wall time is the "cpload" experiment, next to the
		// simulation experiments in the bench artifact.
		e := scenario.ExperimentBench{ID: "cpload", Workers: cfg.watchers, WallSeconds: s.WallSeconds}
		if err := scenario.UpsertBench(cfg.benchJSON, e); err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
	}
	if !s.TranscriptSame {
		return fmt.Errorf("transcript differs with %d watchers: %s vs %s — watchers perturbed the run",
			cfg.watchers, bare, watched)
	}
	if s.PeakHeapMB > float64(cfg.heapMB) {
		return fmt.Errorf("peak heap %.1f MiB exceeds the %d MiB ceiling", s.PeakHeapMB, cfg.heapMB)
	}
	if cfg.watchers > 0 && s.Delivered == 0 {
		return fmt.Errorf("no frames delivered to %d watchers", cfg.watchers)
	}
	return nil
}

// runOnce executes one seeded, recorded run with n watchers attached and
// returns the hex digest of the flight-recording bytes. With s non-nil it
// fills in the load metrics (watched run).
func runOnce(cfg config, n int, s *summary) (string, error) {
	c, err := selfmaint.NewCluster(
		selfmaint.WithSeed(cfg.seed),
		selfmaint.WithLevel(selfmaint.Level(cfg.level)),
		selfmaint.WithRobots(),
		selfmaint.WithTechnicians(2),
		selfmaint.WithFaultAcceleration(cfg.accel),
	)
	if err != nil {
		return "", err
	}
	digest := sha256.New()
	rec, err := c.RecordTo(digest, map[string]string{"tool": "cpload"}, sim.Hour)
	if err != nil {
		return "", err
	}

	hub := controlplane.NewHub(controlplane.Config{QueueCap: cfg.queueCap})
	feed := c.FeedControlPlane(hub)

	var fleet *watcherFleet
	if n > 0 {
		fleet, err = startFleet(hub, n, int(float64(n)*cfg.slowFrac))
		if err != nil {
			return "", err
		}
	}

	start := time.Now()
	var peakHeap uint64
	for i := 0; i < cfg.steps; i++ {
		c.Run(sim.Time(cfg.pace * float64(sim.Second)))
		feed.Sync()
		if s != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
	}
	// Wall time includes the settle phase: the load test's cost is "step the
	// sim AND deliver the stream to everyone", not just the publish side.
	if fleet != nil {
		fleet.settle(10 * time.Second)
	}
	wall := time.Since(start)
	if fleet != nil {
		fleet.stop()
	}
	if s != nil {
		st := hub.Stats()
		s.SlowWatchers = int(float64(n) * cfg.slowFrac)
		s.WallSeconds = wall.Seconds()
		s.Published = st.Published
		s.Delivered = fleet.frames.Load()
		s.DropsReports = fleet.dropsSeen.Load()
		s.Dropped = st.Dropped
		s.Coalesced = st.Coalesced
		s.PeakHeapMB = float64(peakHeap) / (1 << 20)
	}
	if _, err := rec.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", digest.Sum(nil)), nil
}

// watcherFleet is n SSE clients attached to a hub over in-memory pipes.
type watcherFleet struct {
	srv       *http.Server
	ln        *memListener
	wg        sync.WaitGroup
	frames    atomic.Uint64 // delta frames fully received by fast watchers
	dropsSeen atomic.Uint64 // in-band drops reports received
	hellos    atomic.Uint64
}

func startFleet(hub *controlplane.Hub, n, slow int) (*watcherFleet, error) {
	f := &watcherFleet{ln: newMemListener(), srv: &http.Server{Handler: hub.StreamHandler()}}
	go f.srv.Serve(f.ln)

	for i := 0; i < n; i++ {
		conn, err := f.ln.dial()
		if err != nil {
			return nil, err
		}
		f.wg.Add(1)
		go f.watch(conn, i, i < slow)
	}
	// Every watcher must complete its handshake before the load run starts,
	// or early frames race the attach and the delivered counts get mushy.
	for f.hellos.Load() < uint64(n) {
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// watch runs one SSE client. Slow watchers stop reading after the
// handshake — the server-side queue must absorb, coalesce and drop for
// them while everyone else streams on.
func (f *watcherFleet) watch(conn net.Conn, id int, slow bool) {
	defer f.wg.Done()
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream?client=w%d&proto=1 HTTP/1.1\r\nHost: cpload\r\n\r\n", id)
	br := bufio.NewReaderSize(conn, 1024)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		f.hellos.Add(1) // count it anyway so startFleet cannot hang
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// Small initial buffer — 10k watchers each hold one — growing on demand
	// up to the largest snapshot line.
	sc.Buffer(make([]byte, 0, 512), 1<<20)
	sawHello := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: hello"):
			if !sawHello {
				sawHello = true
				f.hellos.Add(1)
				if slow {
					// Handshake done; stop reading. The pipe has no buffer,
					// so the server's writer blocks and its queue fills.
					return
				}
			}
		case strings.HasPrefix(line, "event: delta"):
			f.frames.Add(1)
		case strings.HasPrefix(line, "event: drops"):
			f.dropsSeen.Add(1)
		}
	}
}

// settle waits for delivery to quiesce: the stepping loop outruns the
// stream writers by orders of magnitude, so counts keep climbing after the
// last Sync. Quiesced means no fast watcher received anything for a few
// polls in a row (slow watchers never drain — their queues are the point).
func (f *watcherFleet) settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	prev, stable := f.frames.Load()+f.dropsSeen.Load(), 0
	for time.Now().Before(deadline) && stable < 5 {
		time.Sleep(20 * time.Millisecond)
		if now := f.frames.Load() + f.dropsSeen.Load(); now == prev {
			stable++
		} else {
			prev, stable = now, 0
		}
	}
}

// stop force-closes the server; watcher goroutines exit on their broken
// pipes.
func (f *watcherFleet) stop() {
	f.srv.Close()
	f.ln.Close()
	f.wg.Wait()
}

// memListener is a net.Listener over net.Pipe: no sockets, no fd limits.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial hands the server half to Accept and returns the client half.
func (l *memListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
