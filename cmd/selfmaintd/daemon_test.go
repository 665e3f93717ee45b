package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/flightrec"
	"repro/internal/sim"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error; empty = must parse
	}{
		{"defaults", nil, ""},
		{"zero pace", []string{"-pace", "0"}, "-pace"},
		{"negative pace", []string{"-pace", "-10"}, "-pace"},
		{"NaN pace", []string{"-pace", "NaN"}, "-pace"},
		{"infinite pace", []string{"-pace", "+Inf"}, "-pace"},
		{"level too high", []string{"-level", "5"}, "-level 5 out of range"},
		{"level negative", []string{"-level", "-1"}, "-level -1 out of range"},
		{"empty listen", []string{"-listen", ""}, "-listen must not be empty"},
		{"zero accel", []string{"-accel", "0"}, "-accel"},
		{"zero tick", []string{"-tick", "0s"}, "-tick"},
		{"valid extremes", []string{"-level", "0", "-pace", "0.5", "-tick", "10ms"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v, want ok", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseFlags(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// testConfig is a fast-stepping daemon configuration for in-process tests.
func testConfig() config {
	return config{
		listen: "127.0.0.1:0", level: 4, pace: 3600, accel: 30, seed: 1,
		tickEvery: time.Second,
	}
}

// TestEndpointsServeFromHub drives the daemon's full HTTP surface against
// a manually stepped simulation and checks every endpoint keeps its shape.
func TestEndpointsServeFromHub(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.routes())
	defer ts.Close()

	for i := 0; i < 30; i++ {
		d.step(24 * sim.Hour)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s content type = %q", path, ct)
		}
		return body
	}

	var status map[string]any
	if err := json.Unmarshal(get("/status"), &status); err != nil {
		t.Fatalf("/status: %v", err)
	}
	if status["tickets_opened"].(float64) == 0 {
		t.Fatal("/status reports no tickets after 30 accelerated days")
	}

	var tickets []struct {
		ID     int    `json:"id"`
		Link   string `json:"link"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(get("/tickets"), &tickets); err != nil {
		t.Fatalf("/tickets: %v", err)
	}
	if len(tickets) == 0 {
		t.Fatal("/tickets is empty")
	}
	for i := 1; i < len(tickets); i++ {
		if tickets[i].ID <= tickets[i-1].ID {
			t.Fatalf("/tickets not in id order: %d after %d", tickets[i].ID, tickets[i-1].ID)
		}
	}

	var health map[string][]string
	if err := json.Unmarshal(get("/health"), &health); err != nil {
		t.Fatalf("/health: %v", err)
	}
	for _, key := range []string{"down", "flapping"} {
		if _, ok := health[key]; !ok {
			t.Fatalf("/health missing %q: %v", key, health)
		}
	}

	// /events is the hub's retained bus events: no keyed cp.* state, hub
	// sequence numbers increasing, and bus sequence numbers consecutive
	// (every bus event becomes one hub frame).
	type eventRow struct {
		Seq     uint64 `json:"seq"`
		At      string `json:"at"`
		Topic   string `json:"topic"`
		Payload struct {
			BusSeq uint64 `json:"bus_seq"`
			Text   string `json:"text"`
		} `json:"payload"`
	}
	var events []eventRow
	if err := json.Unmarshal(get("/events"), &events); err != nil {
		t.Fatalf("/events: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/events is empty after 30 accelerated days")
	}
	for i, ev := range events {
		if strings.HasPrefix(ev.Topic, "cp.") || ev.At == "" || ev.Payload.Text == "" {
			t.Fatalf("/events row %d = %+v, want a bus event", i, ev)
		}
		if i == 0 {
			continue
		}
		if prev := events[i-1]; ev.Seq <= prev.Seq || ev.Payload.BusSeq != prev.Payload.BusSeq+1 {
			t.Fatalf("/events row %d (seq %d, bus_seq %d) does not follow row %d (seq %d, bus_seq %d)",
				i, ev.Seq, ev.Payload.BusSeq, i-1, prev.Seq, prev.Payload.BusSeq)
		}
	}

	// /log is exactly the /events rows whose topic is journal.decision.
	var decisions []eventRow
	for _, ev := range events {
		if ev.Topic == "journal.decision" {
			decisions = append(decisions, ev)
		}
	}
	var lines []eventRow
	if err := json.Unmarshal(get("/log"), &lines); err != nil {
		t.Fatalf("/log: %v", err)
	}
	if len(lines) == 0 || len(lines) != len(decisions) {
		t.Fatalf("/log has %d rows, /events has %d journal.decision rows", len(lines), len(decisions))
	}
	for i := range lines {
		if lines[i] != decisions[i] || !strings.HasPrefix(lines[i].Payload.Text, "journal{") {
			t.Fatalf("/log row %d = %+v, want the /events row %+v", i, lines[i], decisions[i])
		}
	}

	var stats struct {
		Steps int `json:"steps"`
		Hub   struct {
			Seq       uint64 `json:"Seq"`
			Published uint64 `json:"Published"`
		} `json:"hub"`
	}
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	if stats.Steps != 30 || stats.Hub.Published == 0 {
		t.Fatalf("/v1/stats = %+v, want 30 steps and nonzero publishes", stats)
	}
}

// TestReadsDoNotWaitForStep holds the simulation lock, as a pacing step
// does while it runs, and requires every read endpoint to answer anyway:
// they read the hub and the values each step publishes, never the cluster.
func TestReadsDoNotWaitForStep(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.routes())
	defer ts.Close()
	d.step(7 * 24 * sim.Hour)

	d.mu.Lock()
	defer d.mu.Unlock()
	client := &http.Client{Timeout: 5 * time.Second}
	for _, tc := range []struct{ name, path string }{
		{"status", "/status"},
		{"tickets", "/tickets"},
		{"health", "/health"},
		{"log", "/log"},
		{"events", "/events"},
		{"stats", "/v1/stats"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatalf("GET %s while a step holds the simulation lock: %v", tc.path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
				t.Fatalf("GET %s = %d (%v): %s", tc.path, resp.StatusCode, err, body)
			}
		})
	}
}

// TestStreamWhileStepping subscribes over HTTP while a ticker goroutine
// steps the simulation, exercising the publisher/subscriber seam under the
// race detector end to end.
func TestStreamWhileStepping(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream?client=test&proto=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			d.step(12 * sim.Hour)
		}
	}()

	rd := controlplane.NewSSEReader(resp.Body)
	var sawHello, sawSnapshot, sawDelta bool
	for !(sawHello && sawSnapshot && sawDelta) {
		f, err := rd.Next()
		if err != nil {
			break
		}
		switch f.Event {
		case "hello":
			sawHello = true
		case "snapshot":
			sawSnapshot = true
		case "delta":
			sawDelta = true
		}
	}
	<-done
	if !sawHello || !sawSnapshot || !sawDelta {
		t.Fatalf("stream saw hello=%v snapshot=%v delta=%v", sawHello, sawSnapshot, sawDelta)
	}
}

// TestStalledHeaderDropped sends half a request line to the daemon's server
// and stalls: it must close the connection within twice readHeaderTimeout,
// unanswered.
func TestStalledHeaderDropped(t *testing.T) {
	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- d.srv.Serve(ln) }()
	defer func() { d.shutdown(); <-errc }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/hea"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * readHeaderTimeout))
	got, err := io.ReadAll(conn)
	if err != nil || strings.Contains(string(got), "200 OK") {
		t.Fatalf("stalled client: read %q, %v; want the connection closed unanswered", got, err)
	}
}

// syncBuffer is a goroutine-safe writer for capturing run()'s output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls until the predicate holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSigtermClosesRecording runs the real daemon lifecycle: fast pacing,
// a flight recording, then SIGTERM. The exit must be graceful (code 0) and
// the recording must carry its trailer — i.e. be replayable.
func TestSigtermClosesRecording(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "run.rec")
	var stdout, stderr syncBuffer
	args := []string{"-listen", "127.0.0.1:0", "-record", rec,
		"-tick", "5ms", "-pace", "86400", "-accel", "30"}

	codec := make(chan int, 1)
	go func() { codec <- run(args, &stdout, &stderr) }()

	waitFor(t, 5*time.Second, "daemon to start pacing", func() bool {
		return strings.Contains(stdout.String(), "hall on")
	})
	time.Sleep(150 * time.Millisecond) // let a few paced steps record frames
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("run() = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	f, err := os.Open(rec)
	if err != nil {
		t.Fatalf("recording missing after graceful shutdown: %v", err)
	}
	defer f.Close()
	res, err := flightrec.Replay(f)
	if err != nil {
		t.Fatalf("recording is not replayable: %v", err)
	}
	if res.Trailer == nil {
		t.Fatal("recording has no trailer — shutdown left it truncated")
	}
	if !res.Match() {
		t.Fatal("replayed fingerprint does not match the trailer")
	}
	if res.Summary.Frames() == 0 {
		t.Fatal("recording replayed to zero frames")
	}
	if !strings.Contains(stdout.String(), "recorded") {
		t.Fatalf("no recording summary printed:\n%s", stdout.String())
	}
}

// TestListenErrorStillClosesRecording occupies the port first: run() must
// fail fast AND still route through shutdown, deleting the empty recording
// instead of leaving a truncated file — the original bug.
func TestListenErrorStillClosesRecording(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	rec := filepath.Join(t.TempDir(), "run.rec")
	var stdout, stderr syncBuffer
	code := run([]string{"-listen", ln.Addr().String(), "-record", rec}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run() on an occupied port = %d, want 1", code)
	}
	if _, err := os.Stat(rec); !os.IsNotExist(err) {
		t.Fatalf("empty recording left behind after listen error (stat err %v)", err)
	}
}

// TestSigintWithoutRecording covers the unrecorded mode: SIGINT must still
// drain gracefully through the same shutdown path.
func TestSigintWithoutRecording(t *testing.T) {
	var stdout, stderr syncBuffer
	args := []string{"-listen", "127.0.0.1:0", "-tick", "5ms", "-pace", "86400", "-accel", "30"}
	codec := make(chan int, 1)
	go func() { codec <- run(args, &stdout, &stderr) }()

	waitFor(t, 5*time.Second, "daemon to start", func() bool {
		return strings.Contains(stdout.String(), "hall on")
	})
	time.Sleep(30 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("run() = %d, want 0\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after SIGINT")
	}
	if !strings.Contains(stdout.String(), "shutting down") {
		t.Fatalf("no shutdown message:\n%s", stdout.String())
	}
}
