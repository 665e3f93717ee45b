package main

// maintctl watch — a terminal client for selfmaintd's streaming control
// plane. It performs the protocol-1 handshake against /v1/stream, prints
// the snapshot, then tails deltas; on a dropped connection the session
// token and last-seen sequence allow resuming without a re-snapshot
// (printed in the hello line, or automatic with -follow).

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/controlplane"
)

type watchOpts struct {
	out    io.Writer
	addr   string
	topics string
	resume string
	last   uint64
	n      int
	raw    bool
	follow bool
}

func cmdWatch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maintctl watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := watchOpts{out: stdout}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7800", "selfmaintd address")
	fs.StringVar(&o.topics, "topics", "", "comma-separated topic filter (e.g. cp.ticket,sense.alert)")
	fs.StringVar(&o.resume, "resume", "", "session token from a previous hello")
	fs.Uint64Var(&o.last, "last", 0, "last processed sequence number (with -resume)")
	fs.IntVar(&o.n, "n", 0, "exit after N delta frames (0 = until interrupted)")
	fs.BoolVar(&o.raw, "raw", false, "print raw frame JSON instead of formatted lines")
	fs.BoolVar(&o.follow, "follow", false, "reconnect and resume automatically when the stream drops")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	for {
		err := watchOnce(&o)
		if err == nil {
			return 0 // -n satisfied
		}
		if !o.follow {
			return fail(stderr, err)
		}
		fmt.Fprintln(stderr, "maintctl: stream dropped:", err, "— resuming")
		time.Sleep(time.Second)
	}
}

// watchOnce runs one stream connection; it returns nil when the -n frame
// budget is exhausted and an error when the stream ends any other way.
// Resume state (session, last seq) is persisted into o for the next call.
func watchOnce(o *watchOpts) error {
	url := fmt.Sprintf("http://%s/v1/stream?client=maintctl&proto=1", o.addr)
	if o.topics != "" {
		url += "&topics=" + o.topics
	}
	if o.resume != "" {
		url += fmt.Sprintf("&resume=%s&last=%d", o.resume, o.last)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	rd := controlplane.NewSSEReader(resp.Body)
	seen := 0
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if f.Event == "" {
			continue
		}
		printFrame(o, f.Event, f.Data)
		if f.Event == "delta" {
			seen++
			if o.n > 0 && seen >= o.n {
				return nil
			}
		}
	}
}

func printFrame(o *watchOpts, event, data string) {
	if o.raw {
		fmt.Fprintf(o.out, "%s %s\n", event, data)
	}
	switch event {
	case "hello":
		var h struct {
			Session string `json:"session"`
			Seq     uint64 `json:"seq"`
			Mode    string `json:"mode"`
		}
		if json.Unmarshal([]byte(data), &h) == nil {
			o.resume, o.last = h.Session, h.Seq
			if !o.raw {
				fmt.Fprintf(o.out, "connected: session %s, %s at seq %d (resume with -resume %s -last N)\n",
					h.Session, h.Mode, h.Seq, h.Session)
			}
		}
	case "snapshot":
		var s struct {
			Seq   uint64                     `json:"seq"`
			State map[string]json.RawMessage `json:"state"`
		}
		if json.Unmarshal([]byte(data), &s) == nil && !o.raw {
			fmt.Fprintf(o.out, "snapshot at seq %d: %d state topics\n", s.Seq, len(s.State))
		}
	case "delta":
		var d struct {
			Seq     uint64          `json:"seq"`
			At      string          `json:"at"`
			Topic   string          `json:"topic"`
			Key     string          `json:"key"`
			Delete  bool            `json:"delete"`
			Payload json.RawMessage `json:"payload"`
		}
		if json.Unmarshal([]byte(data), &d) != nil {
			return
		}
		o.last = d.Seq
		if o.raw {
			return
		}
		switch {
		case d.Delete:
			fmt.Fprintf(o.out, "[%s] %s %s cleared\n", d.At, d.Topic, d.Key)
		case d.Key != "":
			fmt.Fprintf(o.out, "[%s] %s %s %s\n", d.At, d.Topic, d.Key, d.Payload)
		default:
			fmt.Fprintf(o.out, "[%s] %s %s\n", d.At, d.Topic, d.Payload)
		}
	case "drops":
		if !o.raw {
			fmt.Fprintf(o.out, "backpressure: %s\n", data)
		}
	}
}
