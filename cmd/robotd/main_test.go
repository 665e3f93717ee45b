package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/robotapi"
)

// TestRunRefusesBeforeServing covers every way run ends without serving:
// flags that do not validate, an address that cannot be listened on, and a
// world that cannot be built. The occupied port with an unbuildable hall
// must report the listen error, because run listens before it builds.
func TestRunRefusesBeforeServing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"empty listen", []string{"-listen", ""}, 2, "-listen must not be empty"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"occupied port", []string{"-listen", busy}, 1, "address already in use"},
		{"listen before build", []string{"-listen", busy, "-leaves", "0"}, 1, "address already in use"},
		{"unbuildable hall", []string{"-listen", "127.0.0.1:0", "-leaves", "0"}, 1, "leaf-spine needs leaves>0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("run(%q) = %d, stderr %q; want %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
			}
			if strings.Contains(stdout.String(), "serving") {
				t.Fatalf("run(%q) served: %s", tc.args, stdout.String())
			}
		})
	}
}

// syncBuffer is a goroutine-safe writer for capturing run's output.
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

// startRobotd runs the daemon on a free port until stopRobotd, returning
// its address.
func startRobotd(t *testing.T) (addr string, stdout *syncBuffer, codec chan int) {
	t.Helper()
	var stderr syncBuffer
	stdout = new(syncBuffer)
	codec = make(chan int, 1)
	go func() { codec <- run([]string{"-listen", "127.0.0.1:0"}, stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "serving robot API on") {
		if time.Now().After(deadline) {
			t.Fatalf("robotd did not start: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return strings.Fields(strings.SplitAfter(stdout.String(), "serving robot API on ")[1])[0], stdout, codec
}

// stopRobotd sends SIGTERM and returns run's exit code.
func stopRobotd(t *testing.T, codec chan int) int {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codec:
		return code
	case <-time.After(10 * time.Second):
		t.Fatal("robotd did not shut down after SIGTERM")
	}
	return -1
}

// TestSigtermShutsDown serves, answers one request, and exits 0 after
// "shutting down" on SIGTERM.
func TestSigtermShutsDown(t *testing.T) {
	addr, stdout, codec := startRobotd(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if h, err := robotapi.NewClient(addr).Health(ctx); err != nil || h.Links == 0 {
		t.Fatalf("health from %s: %+v, %v", addr, h, err)
	}
	if code := stopRobotd(t, codec); code != 0 || !strings.Contains(stdout.String(), "robotd: shutting down") {
		t.Fatalf("run() = %d\nstdout: %s", code, stdout.String())
	}
}

// TestStalledHeaderDropped sends half a request line and stalls: robotd
// must close the connection within twice readHeaderTimeout, unanswered.
func TestStalledHeaderDropped(t *testing.T) {
	addr, _, codec := startRobotd(t)
	defer stopRobotd(t, codec)
	conn, err := net.Dial("tcp", addr)
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
