package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/sim"
	"repro/selfmaint"
)

// The live-watch generator's step period (100 steps per second, each one
// simulated hour) and its SSE clients.
const (
	stepPeriod = 10 * time.Millisecond
	sseClients = 2
)

// liveSpec sizes the live-watch workload: the cpload scenario watched by
// 1,000 in-process sessions, 50 of which never read. Toy: 20 watchers, 2
// of them idle, for 20 steps.
type liveSpec struct {
	watchers, slow int
	steps          int // 0: one step per period for the measured seconds
}

func liveSpecFor(toy bool) liveSpec {
	if toy {
		return liveSpec{watchers: 20, slow: 2, steps: 20}
	}
	return liveSpec{watchers: 1000, slow: 50}
}

func (s liveSpec) stepsFor(seconds float64) int {
	if s.steps > 0 {
		return s.steps
	}
	return int(seconds * float64(time.Second) / float64(stepPeriod))
}

// liveHall is one watched hall: the cluster, its control-plane hub and
// feed, the in-process watchers and the SSE clients.
type liveHall struct {
	c       *selfmaint.Cluster
	hub     *controlplane.Hub
	feed    *selfmaint.Feed
	readers []*controlplane.Attachment
	idle    []*controlplane.Attachment // the slow cohort: attached, never read
	sse     *sseFleet
}

func newLiveHall(seed uint64, s liveSpec) (*liveHall, error) {
	c, err := selfmaint.NewCluster(selfmaint.WithSeed(derive(seed, 0)), selfmaint.WithLevel(selfmaint.L4),
		selfmaint.WithRobots(), selfmaint.WithTechnicians(2), selfmaint.WithFaultAcceleration(30))
	if err != nil {
		return nil, err
	}
	h := &liveHall{c: c, hub: controlplane.NewHub(controlplane.Config{QueueCap: queueCap})}
	h.feed = c.FeedControlPlane(h.hub)
	for i := 0; i < s.watchers; i++ {
		att, err := h.hub.Attach(controlplane.AttachOptions{Client: fmt.Sprintf("w%d", i)})
		if err != nil {
			h.close()
			return nil, err
		}
		if i < s.slow {
			h.idle = append(h.idle, att)
		} else {
			h.readers = append(h.readers, att)
		}
	}
	if h.sse, err = startSSE(h.hub, sseClients); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *liveHall) close() {
	if h.sse != nil {
		h.sse.stop()
	}
	for _, a := range h.readers {
		h.hub.Detach(a)
	}
	for _, a := range h.idle {
		h.hub.Detach(a)
	}
	h.feed.Close()
}

// reach is an observation that a watcher (or every reader) had received
// every frame up to seq at time at.
type reach struct {
	at  time.Time
	seq uint64
}

// reachLatencies returns, per step, the host ms from the step's due time
// to the first observation covering the step's last frame; steps never
// covered are left out. obs must be in time order.
func reachLatencies(sch schedule, stepLast []uint64, obs []reach) []float64 {
	var out []float64
	j := 0
	for k, last := range stepLast {
		for j < len(obs) && obs[j].seq < last {
			j++
		}
		if j == len(obs) {
			break
		}
		out = append(out, ms(sch.latency(k, obs[j].at)))
	}
	return out
}

// drainer is the one goroutine that drains every reading watcher: after
// each step it takes each reader's queue in turn. A pass ends when every
// reader has been drained; the end of the pass is when they all had the
// frames published before it began.
type drainer struct {
	readers []*controlplane.Attachment
	from    uint64 // frames after this seq count as delivered work
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}

	// Owned by the drainer goroutine until done is closed.
	last   []uint64
	got    []uint64       // frames each reader took since it attached
	shed   []backpressure // each reader's latest drops report
	taken  uint64
	misses int // frames out of sequence order
	passes []reach
	passMs []float64
}

func startDrainer(readers []*controlplane.Attachment, from uint64) *drainer {
	n := len(readers)
	d := &drainer{readers: readers, from: from, kick: make(chan struct{}, 1), stop: make(chan struct{}),
		done: make(chan struct{}), last: make([]uint64, n), got: make([]uint64, n), shed: make([]backpressure, n)}
	go d.loop()
	return d
}

func (d *drainer) loop() {
	defer close(d.done)
	for {
		select {
		case <-d.kick:
			d.pass()
		case <-d.stop:
			d.pass()
			return
		}
	}
}

// queueCap bounds each watcher's queue. One simulated hour can publish
// several hundred frames at once (a fault storm's tickets and bus events;
// up to 598 seen across seeds), so the hub default of 256 would drop frames
// for watchers that drain every step. A storm of several such steps that
// lands during one slow pass can still overflow a reader's queue; the hub
// then drops the oldest frames and says so in-band, which the check
// accounts for. One Take of this many frames empties a queue.
const queueCap = 1024

func (d *drainer) pass() {
	t0 := time.Now()
	low := ^uint64(0)
	for i, a := range d.readers {
		frames, drops := a.Take(queueCap)
		for _, f := range frames {
			if f.Seq <= d.last[i] {
				d.misses++
			}
			d.last[i] = f.Seq
			if f.Seq > d.from {
				d.taken++
			}
		}
		d.got[i] += uint64(len(frames))
		if drops != nil {
			d.shed[i] = readBackpressure(drops)
		}
		low = min(low, d.last[i])
	}
	t1 := time.Now()
	d.passes = append(d.passes, reach{t1, low})
	d.passMs = append(d.passMs, ms(t1.Sub(t0)))
}

// backpressure is a watcher's cumulative drops report: the frames the hub
// dropped from its full queue and those a newer frame of the same key
// superseded.
type backpressure struct {
	Dropped   uint64 `json:"dropped"`
	Coalesced uint64 `json:"coalesced"`
}

func readBackpressure(report []byte) backpressure {
	var b backpressure
	if err := json.Unmarshal(report, &b); err != nil {
		return backpressure{}
	}
	return b
}

// unaccounted returns how many of the frames offered to a watcher since it
// attached it neither received nor was told were dropped or coalesced. The
// hub's backpressure policy sheds frames for a watcher that falls behind,
// but never silently: every offered frame is delivered or counted.
func unaccounted(offered, got uint64, b backpressure) uint64 {
	seen := got + b.Dropped + b.Coalesced
	if seen > offered {
		return seen - offered
	}
	return offered - seen
}

// finish makes a final pass and waits for the goroutine to exit.
func (d *drainer) finish() {
	close(d.stop)
	<-d.done
}

// liveOut is one open-loop drive's measurements.
type liveOut struct {
	elapsed   time.Duration // first due time to every watcher caught up
	fanoutMs  []float64
	lateMs    []float64
	sseLagMs  []float64
	passMs    []float64
	busyMs    [2][]float64 // simulation + Sync per step: untraced, traced
	offered   int64
	failed    int64  // frames lost without a drops report, or out of order
	taken     uint64 // frames the in-process readers took
	hub0, hub controlplane.Stats
}

// drive runs the open loop: step k is due k periods after the start; at
// its due time (or at once, when late) the generator advances the hall one
// simulated hour, syncs the feed and kicks the drainer, never waiting on a
// watcher. After the last step it waits (up to a bound) for every watcher
// to catch up, then checks that each saw the last frame, took its frames in
// order, and received or was told of the loss of every frame offered to it.
// With clk set, steps alternate between untraced and traced.
func (r *run) drive(h *liveHall, steps int, clk *evClock) liveOut {
	var out liveOut
	out.hub0 = h.hub.Stats()
	dr := startDrainer(h.readers, out.hub0.Seq)
	sseFrom := h.sse.mark()
	w := h.c.World()
	sch := schedule{start: time.Now().Add(stepPeriod), period: stepPeriod}
	stepLast := make([]uint64, 0, steps)
	var before worldSnap
	for k := 0; k < steps; k++ {
		traced := clk != nil && tracedAt(k)
		if traced {
			before = snapWorld(w)
			w.Eng.SetTracer(clk.fire)
			r.tr = r.trace
		}
		if wait := time.Until(sch.due(k)); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		out.lateMs = append(out.lateMs, ms(sch.late(k, t0)))
		h.c.Run(sim.Hour)
		if traced {
			clk.close("")
		}
		t1 := time.Now()
		h.feed.Sync()
		t2 := time.Now()
		if traced {
			out.busyMs[1] = append(out.busyMs[1], ms(t2.Sub(t0)))
			r.sample("controlplane.sync_ms", ms(t2.Sub(t1)))
			r.tr.interval(clk.op, "step", "", t0, t1)
			r.tr.interval(clk.op, "controlplane.sync", "", t1, t2)
			r.max("controlplane.queued_max", float64(h.hub.Stats().Queued))
		} else {
			out.busyMs[0] = append(out.busyMs[0], ms(t2.Sub(t0)))
		}
		stepLast = append(stepLast, h.hub.Seq())
		select {
		case dr.kick <- struct{}{}:
		default: // a pass is already pending; it will see this step too
		}
		if traced {
			w.Eng.SetTracer(nil)
			r.addWorldDelta(before, snapWorld(w))
			r.tr = nil
		}
	}
	final := h.hub.Seq()
	caughtUp := h.sse.settle(final, 10*time.Second)
	dr.finish()
	out.elapsed = time.Since(sch.start)
	out.hub = h.hub.Stats()

	out.fanoutMs = reachLatencies(sch, stepLast, dr.passes)
	for i, c := range h.sse.clients {
		out.sseLagMs = append(out.sseLagMs, reachLatencies(sch, stepLast, c.since(sseFrom[i]))...)
	}
	out.passMs, out.taken = dr.passMs, dr.taken
	out.offered = int64(final-out.hub0.Seq) * int64(len(h.readers)+len(h.sse.clients))
	for i, last := range dr.last {
		if last != final {
			r.violate("live-watch: reader %d stopped at frame %d of %d", i, last, final)
			break
		}
	}
	var lost uint64
	for i, a := range h.readers {
		lost += unaccounted(final-a.Seq, dr.got[i], dr.shed[i])
	}
	if dr.misses > 0 {
		r.violate("live-watch: readers took %d frames out of sequence order", dr.misses)
	}
	misses := dr.misses
	for i, c := range h.sse.clients {
		st := c.stats()
		lost += unaccounted(final-st.base, st.got, st.shed)
		misses += st.misses
		if !caughtUp || st.last != final || st.misses > 0 {
			r.violate("live-watch: SSE client %d at frame %d of %d, %d out of order", i, st.last, final, st.misses)
		}
	}
	if lost > 0 {
		r.violate("live-watch: %d frames neither delivered nor reported dropped or coalesced", lost)
	}
	out.failed = int64(lost) + int64(misses)
	return out
}

// digestLive records the watched hall's digest after steps steps.
func (r *run) digestLive(h *liveHall, seed uint64, steps int) {
	var d digest
	d.add(fmt.Sprintf("%+v", h.c.Report()), h.hub.Seq())
	r.digestOp(fmt.Sprintf("live-watch/seed=%d/steps=%d", derive(seed, 0), steps), d.sum())
}

// account adds a drive's frame ops to the run: each frame offered to a
// reading watcher is an op, failed when the watcher took it out of order or
// lost it without a drops report. A frame the hub dropped from a full queue
// and reported in-band is its backpressure policy at work, not a failure;
// controlplane.dropped counts those.
func (r *run) account(out liveOut) {
	r.res.Attempted += out.offered
	r.res.Failed += out.failed
}

// runLive is the live-watch workload. Set-up is building the hall, its hub
// and feed, attaching every watcher and completing the SSE handshakes.
func runLive(r *run) error {
	s := liveSpecFor(r.o.toy)
	var h *liveHall
	release := func() {
		if h != nil {
			h.close()
			h = nil
		}
	}
	setupS, err := r.measureSetup(release, func() (err error) {
		h, err = newLiveHall(r.o.seed, s)
		return err
	})
	if err != nil {
		return err
	}
	defer release()
	steps := s.stepsFor(r.o.seconds)

	if r.trace == nil {
		out := r.drive(h, steps, nil)
		r.account(out)
		r.digestLive(h, r.o.seed, steps)
		r.reportEndToEnd(setupS, float64(steps), []time.Duration{out.elapsed}, out.fanoutMs)
		return nil
	}

	// Traced: the same steps as an untraced run, alternately untraced and
	// traced. A step's cost swings with the frames it publishes, so the
	// overhead compares the two sides' median step; the watcher-side
	// figures and Go runtime counters cover every step.
	wl := r.trace.begin(0, "workload", "live-watch")
	att, err := h.hub.Attach(controlplane.AttachOptions{Client: "snapshot-probe"})
	if err != nil {
		return err
	}
	r.counts["controlplane.snapshot_bytes"] = float64(len(att.Snapshot))
	h.hub.Detach(att)
	clk := newEvClock()
	clk.op = wl
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out := r.drive(h, steps, clk)
	r.addRuntime(&m0)
	r.trace.end(wl)
	r.account(out)
	r.digestLive(h, r.o.seed, steps)
	r.trace.absorb(clk)
	r.traced(func() {
		for name, xs := range map[string][]float64{"controlplane.fanout_ms": out.fanoutMs,
			"controlplane.gen_late_ms": out.lateMs, "controlplane.sse_lag_ms": out.sseLagMs,
			"controlplane.take_pass_ms": out.passMs} {
			for _, v := range xs {
				r.sample(name, v)
			}
		}
		r.add("controlplane.frames_published", float64(out.hub.Published-out.hub0.Published))
		r.add("controlplane.frames_taken", float64(out.taken))
		r.add("controlplane.dropped", float64(out.hub.Dropped-out.hub0.Dropped))
		r.add("controlplane.coalesced", float64(out.hub.Coalesced-out.hub0.Coalesced))
	})
	if u := median(out.busyMs[0]); u > 0 {
		r.counts["trace.overhead_frac"] = median(out.busyMs[1])/u - 1
	}
	r.reportLayers(int(out.offered))
	return nil
}

// sseFleet is the SSE watchers: an HTTP server on the hub's stream handler
// over an in-memory listener, and one client per connection.
type sseFleet struct {
	srv      *http.Server
	ln       *memListener
	served   chan struct{} // closed when Serve returns
	handlers sync.WaitGroup
	clients  []*sseClient
	wg       sync.WaitGroup
}

func startSSE(hub *controlplane.Hub, n int) (*sseFleet, error) {
	f := &sseFleet{ln: newMemListener(), served: make(chan struct{})}
	stream := hub.StreamHandler()
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f.handlers.Add(1)
		defer f.handlers.Done()
		stream.ServeHTTP(w, req)
	})}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(f.ln) // always http.ErrServerClosed, from stop
	}()
	for i := 0; i < n; i++ {
		conn, err := f.ln.dial()
		if err != nil {
			f.stop()
			return nil, err
		}
		c := &sseClient{hello: make(chan error, 1)}
		f.clients = append(f.clients, c)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			c.read(conn, i)
		}()
		if err := <-c.hello; err != nil {
			f.stop()
			return nil, fmt.Errorf("sse client %d: %w", i, err)
		}
	}
	return f, nil
}

// stop closes the server and every connection, then waits for the server,
// its handlers and the clients to return. Every handler has started by
// then: each client waited for its hello, which the handler sends.
func (f *sseFleet) stop() {
	f.srv.Close()
	f.ln.Close()
	<-f.served
	f.handlers.Wait()
	f.wg.Wait()
}

// mark returns each client's arrival count, the start of a drive.
func (f *sseFleet) mark() []int {
	n := make([]int, len(f.clients))
	for i, c := range f.clients {
		c.mu.Lock()
		n[i] = len(c.arrivals)
		c.mu.Unlock()
	}
	return n
}

// settle polls until every client has received frame seq and the drops
// report covering every frame it did not receive, or timeout.
func (f *sseFleet) settle(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, c := range f.clients {
			if st := c.stats(); st.last < seq || unaccounted(seq-st.base, st.got, st.shed) != 0 {
				all = false
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// sseClient reads one SSE stream, recording when each delta frame arrived.
type sseClient struct {
	hello chan error // the handshake's outcome, sent once

	mu       sync.Mutex
	arrivals []reach
	sseStats
}

// sseStats is what one SSE client has seen of its stream.
type sseStats struct {
	base   uint64 // the hello frame's seq: deltas continue from base+1
	last   uint64 // the last delta's id
	got    uint64 // delta frames received
	misses int    // delta frames out of sequence order
	shed   backpressure
}

func (c *sseClient) stats() sseStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sseStats
}

// since returns the arrivals after the first n.
func (c *sseClient) since(n int) []reach {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]reach(nil), c.arrivals[n:]...)
}

func (c *sseClient) read(conn net.Conn, id int) {
	defer conn.Close()
	greeted := false
	greet := func(err error) {
		if !greeted {
			greeted = true
			c.hello <- err
		}
	}
	defer greet(fmt.Errorf("stream ended before the hello frame"))
	if _, err := fmt.Fprintf(conn, "GET /v1/stream?client=sse%d&proto=1 HTTP/1.1\r\nHost: bench\r\n\r\n", id); err != nil {
		greet(err)
		return
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		greet(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		greet(fmt.Errorf("status %s", resp.Status))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "hello" && strings.HasPrefix(line, "data: "):
			var hello struct {
				Seq uint64 `json:"seq"`
			}
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &hello)
			c.mu.Lock()
			c.base, c.last = hello.Seq, hello.Seq
			c.mu.Unlock()
			greet(err)
			if err != nil {
				return
			}
		case event == "delta" && strings.HasPrefix(line, "id: "):
			seq, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				continue
			}
			now := time.Now()
			c.mu.Lock()
			if seq <= c.last {
				c.misses++
			}
			c.last = seq
			c.got++
			c.arrivals = append(c.arrivals, reach{now, seq})
			c.mu.Unlock()
		case event == "drops" && strings.HasPrefix(line, "data: "):
			b := readBackpressure([]byte(strings.TrimPrefix(line, "data: ")))
			c.mu.Lock()
			c.shed = b
			c.mu.Unlock()
		}
	}
}

// memListener is a net.Listener over net.Pipe: the SSE connections stay in
// memory, so the workload opens no sockets.
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

// dial hands the server half of a pipe to Accept and returns the client
// half.
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
