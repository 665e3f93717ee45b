package controlplane

import (
	"bytes"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/sim"
)

// sseSeed renders a stream the way the endpoint writes one: hello, a
// snapshot at seq 1, the delta at seq 3 (seq 2 was dropped from a one-frame
// queue) and the drops report that says so.
func sseSeed(tb testing.TB) []byte {
	tb.Helper()
	h := NewHub(Config{QueueCap: 1})
	h.Publish(TopicStatus, "status", false, sim.Hour, []byte(`{"v":1}`))
	att, err := h.Attach(AttachOptions{Client: "seed"})
	if err != nil {
		tb.Fatal(err)
	}
	h.Publish("sense.alert", "", false, 2*sim.Hour, []byte(`{"bus_seq":1,"text":"alert{link-down l0}"}`))
	h.Publish("sense.alert", "", false, 2*sim.Hour, []byte(`{"bus_seq":2,"text":"alert{link-recovered l0}"}`))
	frames, drops := att.Take(8)
	if len(frames) != 1 || drops == nil {
		tb.Fatalf("seed hub took %d frames and drops %s, want 1 frame and a drops report", len(frames), drops)
	}
	w := httptest.NewRecorder()
	writeFrame(w, "hello", 0, false, []byte(`{"proto":1,"session":"s1","resume":"s1","seq":1,"mode":"snapshot"}`))
	writeFrame(w, "snapshot", att.Seq, true, att.Snapshot)
	writeFrame(w, "delta", frames[0].Seq, true, frames[0].wire)
	writeFrame(w, "drops", 0, false, drops)
	return w.Body.Bytes()
}

// readFrames reads until Next fails, which for in-memory input must be
// io.EOF, and stays io.EOF. Every frame takes at least one input line.
func readFrames(t *testing.T, r *SSEReader, inputLen int) []SSEFrame {
	t.Helper()
	var out []SSEFrame
	for {
		f, err := r.Next()
		if err == io.EOF {
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("Next after io.EOF = %v", err)
			}
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if strings.Contains(f.Event+f.ID+f.Data, "\n") {
			t.Fatalf("frame %+v spans lines", f)
		}
		if out = append(out, f); len(out) > inputLen {
			t.Fatalf("%d frames from %d bytes", len(out), inputLen)
		}
	}
}

func TestSSEReaderParsesStream(t *testing.T) {
	seed := sseSeed(t)
	got := readFrames(t, NewSSEReader(bytes.NewReader(seed)), len(seed))
	var events, ids []string
	for _, f := range got {
		events, ids = append(events, f.Event), append(ids, f.ID)
	}
	if strings.Join(events, " ") != "hello snapshot delta drops" || strings.Join(ids, ",") != ",1,3," {
		t.Fatalf("parsed events %q with ids %q", events, ids)
	}
	if !strings.Contains(got[2].Data, `"seq":3`) || !strings.Contains(got[3].Data, `"dropped":1`) {
		t.Fatalf("delta %s, drops %s", got[2].Data, got[3].Data)
	}
	// A frame that no blank line completes is not returned.
	cut := seed[:len(seed)-1]
	if got := readFrames(t, NewSSEReader(bytes.NewReader(cut)), len(cut)); len(got) != 3 {
		t.Fatalf("stream cut inside its last frame gave %d frames, want 3", len(got))
	}
}

// FuzzSSEReader feeds arbitrary bytes to the stream reader: they must
// yield frames and then io.EOF, never a panic, and the same frames whether
// the bytes arrive at once or one at a time. Seeds: a hello, snapshot,
// delta and drops stream, and truncations of it.
func FuzzSSEReader(f *testing.F) {
	seed := sseSeed(f)
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) * 2 / 3, len(seed) / 2, len(seed) / 3, 7} {
		f.Add(seed[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		whole := readFrames(t, NewSSEReader(bytes.NewReader(b)), len(b))
		trickle := readFrames(t, NewSSEReader(iotest.OneByteReader(bytes.NewReader(b))), len(b))
		if !reflect.DeepEqual(whole, trickle) {
			t.Fatalf("frames depend on how the bytes arrive:\n%+v\n%+v", whole, trickle)
		}
	})
}
