package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"testing"
)

// maxFrameHeader is a length prefix announcing MaxFrame bytes.
func maxFrameHeader() []byte { return binary.BigEndian.AppendUint32(nil, MaxFrame) }

// A header announcing MaxFrame costs only the bytes that follow it: the
// body is read as it arrives, not allocated at its announced size.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	in := append(maxFrameHeader(), `{"v":1}`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("frame cut short of its announced length accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a %d-byte input, want at most 1 MiB", n, len(in))
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, which must return an
// envelope or an error, never panic; a decoded envelope must survive
// WriteFrame and ReadFrame again unchanged. Seeds: TestFrameRoundTrip's
// envelope, a truncation of it, and two oversize headers.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{V: Version, ID: 7, Type: "t", Payload: json.RawMessage(`{"a":1}`)}); err != nil {
		f.Fatal(err)
	}
	frame := buf.Bytes()
	for _, seed := range [][]byte{frame, frame[:len(frame)/2], maxFrameHeader(), {0xFF, 0xFF, 0xFF, 0xFF}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := ReadFrame(bytes.NewReader(b))
		if (env == nil) == (err == nil) {
			t.Fatalf("ReadFrame returned envelope %v and error %v, want exactly one", env, err)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, env); err != nil {
			t.Fatalf("WriteFrame(%+v): %v", env, err)
		}
		back, err := ReadFrame(&again)
		if err != nil {
			t.Fatalf("ReadFrame after WriteFrame(%+v): %v", env, err)
		}
		if back.V != env.V || back.ID != env.ID || back.Type != env.Type || back.Error != env.Error {
			t.Fatalf("round trip changed the envelope: %+v, then %+v", env, back)
		}
	})
}
