package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

type helloData struct {
	Proto   int    `json:"proto"`
	Session string `json:"session"`
	Resume  string `json:"resume"`
	Seq     uint64 `json:"seq"`
	Mode    string `json:"mode"`
}

func mustHello(t *testing.T, r *SSEReader) helloData {
	t.Helper()
	f, err := r.Next()
	if err != nil || f.Event != "hello" {
		t.Fatalf("first frame = %+v err %v, want hello", f, err)
	}
	var h helloData
	if err := json.Unmarshal([]byte(f.Data), &h); err != nil {
		t.Fatalf("hello payload: %v\n%s", err, f.Data)
	}
	if h.Proto != Proto {
		t.Fatalf("hello proto = %d, want %d", h.Proto, Proto)
	}
	return h
}

func openStream(t *testing.T, url string) (*http.Response, *SSEReader) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	return resp, NewSSEReader(resp.Body)
}

func TestStreamHandshakeSnapshotDelta(t *testing.T) {
	h := NewHub(Config{})
	h.Publish(TopicStatus, "status", false, sim.Hour, []byte(`{"v":1}`))
	h.Publish(TopicHealth, "leaf0/p0", false, sim.Hour, []byte(`{"health":"down"}`))
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	resp, r := openStream(t, srv.URL+"?client=test&proto=1")
	defer resp.Body.Close()
	hello := mustHello(t, r)
	if hello.Mode != "snapshot" || hello.Seq != 2 {
		t.Fatalf("hello = %+v, want snapshot mode at seq 2", hello)
	}
	if hello.Session != hello.Resume || hello.Session == "" {
		t.Fatalf("hello session/resume = %q/%q", hello.Session, hello.Resume)
	}

	f, err := r.Next()
	if err != nil || f.Event != "snapshot" || f.ID != "2" {
		t.Fatalf("second frame = %+v err %v, want snapshot id 2", f, err)
	}
	var snap struct {
		Seq   uint64                            `json:"seq"`
		State map[string]map[string]interface{} `json:"state"`
	}
	if err := json.Unmarshal([]byte(f.Data), &snap); err != nil {
		t.Fatalf("snapshot payload: %v", err)
	}
	if snap.Seq != 2 || snap.State["cp.status"]["status"] == nil || snap.State["cp.health"]["leaf0/p0"] == nil {
		t.Fatalf("snapshot = %s", f.Data)
	}

	h.Publish("sense.alert", "", false, 2*sim.Hour, []byte(`{"kind":"link-down"}`))
	h.Publish(TopicHealth, "leaf0/p0", true, 2*sim.Hour, nil) // tombstone

	f, err = r.Next()
	if err != nil || f.Event != "delta" || f.ID != "3" {
		t.Fatalf("delta 1 = %+v err %v", f, err)
	}
	var delta struct {
		Seq     uint64          `json:"seq"`
		At      string          `json:"at"`
		Topic   string          `json:"topic"`
		Key     string          `json:"key"`
		Delete  bool            `json:"delete"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal([]byte(f.Data), &delta); err != nil {
		t.Fatalf("delta payload: %v\n%s", err, f.Data)
	}
	if delta.Seq != 3 || delta.Topic != "sense.alert" || string(delta.Payload) != `{"kind":"link-down"}` {
		t.Fatalf("delta = %s", f.Data)
	}

	f, err = r.Next()
	if err != nil || f.ID != "4" {
		t.Fatalf("delta 2 = %+v err %v", f, err)
	}
	if err := json.Unmarshal([]byte(f.Data), &delta); err != nil {
		t.Fatal(err)
	}
	if !delta.Delete || delta.Key != "leaf0/p0" {
		t.Fatalf("tombstone delta = %s", f.Data)
	}
}

func TestStreamRejectsUnsupportedProto(t *testing.T) {
	h := NewHub(Config{})
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?proto=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("proto=2 status = %d, want 400", resp.StatusCode)
	}
}

func TestStreamRejectsBadLast(t *testing.T) {
	h := NewHub(Config{})
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?last=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("last=banana status = %d, want 400", resp.StatusCode)
	}
}

func TestStreamResumeOverHTTP(t *testing.T) {
	h := NewHub(Config{})
	h.Publish(TopicStatus, "status", false, sim.Hour, []byte(`{"v":1}`))
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	resp, r := openStream(t, srv.URL+"?client=resumer")
	hello := mustHello(t, r)
	if _, err := r.Next(); err != nil { // snapshot frame
		t.Fatal(err)
	}
	h.Publish("sense.alert", "", false, sim.Hour, []byte(`{"i":1}`))
	f, err := r.Next()
	if err != nil || f.Event != "delta" {
		t.Fatalf("delta = %+v err %v", f, err)
	}
	lastSeen, _ := strconv.ParseUint(f.ID, 10, 64)
	resp.Body.Close() // drop the connection

	// Published while disconnected.
	h.Publish("sense.alert", "", false, sim.Hour, []byte(`{"i":2}`))
	h.Publish("sense.alert", "", false, sim.Hour, []byte(`{"i":3}`))
	waitDetached(t, h, hello.Session)

	resp2, r2 := openStream(t, fmt.Sprintf("%s?client=resumer&resume=%s&last=%d", srv.URL, hello.Session, lastSeen))
	defer resp2.Body.Close()
	hello2 := mustHello(t, r2)
	if hello2.Mode != "resume" || hello2.Session != hello.Session || hello2.Seq != lastSeen {
		t.Fatalf("resume hello = %+v, want resume of %s at %d", hello2, hello.Session, lastSeen)
	}
	for i, want := range []uint64{lastSeen + 1, lastSeen + 2} {
		f, err := r2.Next()
		if err != nil || f.Event != "delta" {
			t.Fatalf("replayed delta %d = %+v err %v", i, f, err)
		}
		if got, _ := strconv.ParseUint(f.ID, 10, 64); got != want {
			t.Fatalf("replayed delta %d id = %d, want %d", i, got, want)
		}
	}
}

// waitDetached blocks until the hub has detached session id. The server
// learns of a dropped connection asynchronously, so a client that resumes
// at once can still find the old stream attached (409).
func waitDetached(t *testing.T, h *Hub, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		attached := false
		for _, s := range h.Sessions() {
			if s.ID == id && s.Attached {
				attached = true
			}
		}
		if !attached {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still attached 5s after its stream dropped", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamBusySessionConflict(t *testing.T) {
	h := NewHub(Config{})
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, r := openStream(t, srv.URL+"?client=a")
	defer resp.Body.Close()
	hello := mustHello(t, r)
	resp2, err := http.Get(srv.URL + "?client=b&resume=" + hello.Session)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("attach to live session status = %d, want 409", resp2.StatusCode)
	}
}

func TestStreamTopicFilterOverHTTP(t *testing.T) {
	h := NewHub(Config{})
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, r := openStream(t, srv.URL+"?client=f&topics=sense.alert")
	defer resp.Body.Close()
	mustHello(t, r)
	if _, err := r.Next(); err != nil { // snapshot
		t.Fatal(err)
	}
	h.Publish("journal.decision", "", false, sim.Hour, []byte(`{"skip":1}`))
	h.Publish("sense.alert", "", false, sim.Hour, []byte(`{"want":1}`))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Data, `"sense.alert"`) || strings.Contains(f.Data, "journal") {
		t.Fatalf("filtered stream delivered %s", f.Data)
	}
}

// TestStreamDropsFrameInBand forces queue overflow and asserts the drops
// report reaches the wire.
func TestStreamDropsFrameInBand(t *testing.T) {
	h := NewHub(Config{QueueCap: 4})
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, r := openStream(t, srv.URL+"?client=d")
	defer resp.Body.Close()
	mustHello(t, r)
	if _, err := r.Next(); err != nil { // snapshot
		t.Fatal(err)
	}
	// Overflow the 4-deep queue: frames big enough to overwhelm the TCP
	// buffers block the writer goroutine (the reader is not reading yet),
	// so the queue must overflow while publishes sail on regardless.
	big := []byte(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}`)
	for i := 0; i < 32; i++ {
		h.Publish("sense.alert", "", false, sim.Hour, big)
	}
	sawDrops := false
	for i := 0; i < 200 && !sawDrops; i++ {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("stream ended before drops frame: %v", err)
		}
		if f.Event == "drops" {
			var rep struct {
				Dropped uint64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(f.Data), &rep); err != nil || rep.Dropped == 0 {
				t.Fatalf("drops frame = %s (err %v)", f.Data, err)
			}
			sawDrops = true
		}
	}
	if !sawDrops {
		t.Fatal("no in-band drops frame after forced overflow")
	}
}

// FuzzStreamParams drives the stream endpoint with arbitrary proto, last,
// topics, resume and client query values, on one hub across every input:
// each request must end in a 400, a 409, or a well-formed hello frame (and
// in snapshot mode the snapshot at the hello's seq), never a panic. The
// request context is already cancelled, so the handler returns once the
// handshake is written. After every request the session registry must
// stay within MaxSessions: one session is held attached throughout, so
// eviction always has a detached one to remove.
func FuzzStreamParams(f *testing.F) {
	f.Add("", "", "", "", "w")
	f.Add("1", "3", "cp.status,sense.alert", "s2", "w")
	f.Add("2", "", "", "", "")
	f.Add("1", "banana", "", "", "")
	f.Add("", "0", "", "s1", "busy")
	f.Add("", "18446744073709551615", " , ,cp.health,", "s3", "\xff")
	f.Add("1", "5", "cp.ticket", "s999", "")

	const maxSessions = 8
	h := NewHub(Config{QueueCap: 4, Retain: 8, MaxSessions: maxSessions})
	for i := range 12 {
		h.Publish(TopicStatus, "status", false, sim.Time(i), []byte(`{"n":`+strconv.Itoa(i)+`}`))
		h.Publish("sense.alert", "", false, sim.Time(i), []byte(`{"bus_seq":`+strconv.Itoa(i)+`}`))
	}
	held, err := h.Attach(AttachOptions{Client: "held"}) // session s1 stays live: resume=s1 is a 409
	if err != nil {
		f.Fatal(err)
	}
	defer h.Detach(held)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 12

	f.Fuzz(func(t *testing.T, proto, last, topics, resume, client string) {
		n++
		h.Publish("sense.alert", "", false, sim.Time(n), []byte(`{"bus_seq":`+strconv.Itoa(n)+`}`))
		q := url.Values{}
		for _, kv := range [...][2]string{{"proto", proto}, {"last", last}, {"topics", topics}, {"resume", resume}, {"client", client}} {
			if kv[1] != "" {
				q.Set(kv[0], kv[1])
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/stream?"+q.Encode(), nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.StreamHandler().ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict:
		case http.StatusOK:
			if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("query %q: content type %q", q.Encode(), ct)
			}
			r := NewSSEReader(rec.Body)
			fr, err := r.Next()
			if err != nil || fr.Event != "hello" {
				t.Fatalf("query %q: first frame %+v, err %v", q.Encode(), fr, err)
			}
			var hello helloData
			if err := json.Unmarshal([]byte(fr.Data), &hello); err != nil {
				t.Fatalf("query %q: hello payload %v: %s", q.Encode(), err, fr.Data)
			}
			if hello.Proto != Proto || hello.Session == "" || hello.Resume != hello.Session {
				t.Fatalf("query %q: malformed hello %+v", q.Encode(), hello)
			}
			switch hello.Mode {
			case "resume":
				if resume == "" {
					t.Fatalf("query %q: resumed without a resume token", q.Encode())
				}
			case "snapshot":
				snap, err := r.Next()
				if err != nil || snap.Event != "snapshot" || snap.ID != strconv.FormatUint(hello.Seq, 10) || !json.Valid([]byte(snap.Data)) {
					t.Fatalf("query %q: snapshot frame %+v, err %v after hello %+v", q.Encode(), snap, err, hello)
				}
			default:
				t.Fatalf("query %q: hello mode %q", q.Encode(), hello.Mode)
			}
		default:
			t.Fatalf("query %q: status %d: %s", q.Encode(), rec.Code, rec.Body)
		}
		if got := len(h.Sessions()); got > maxSessions {
			t.Fatalf("session registry holds %d sessions, bound %d", got, maxSessions)
		}
	})
}
