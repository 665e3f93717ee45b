package flightrec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// header returns a recording header that announces n metadata entries.
func header(n uint64) []byte {
	return binary.AppendUvarint(append(append([]byte(nil), magic[:]...), version), n)
}

// withFrame appends one frame, its length prefix and then body, to file.
func withFrame(file []byte, body ...byte) []byte {
	file = binary.AppendUvarint(file, uint64(len(body)))
	return append(file, body...)
}

// hostileShardRecording holds one event frame whose 13-byte body names
// shard 2^63, which converts to a negative int: 01, uvarint(2^63), then an
// empty topic.
func hostileShardRecording() []byte {
	body := binary.AppendUvarint([]byte{byte(KindEvent)}, 1<<63)
	return withFrame(header(0), append(body, 0, 0)...)
}

// hostileStateRecording holds one state frame whose 6-byte body claims
// 16 Mi entries.
func hostileStateRecording() []byte {
	return withFrame(header(0), binary.AppendUvarint([]byte{byte(KindState), 0}, 16<<20)...)
}

// hostileMetaRecording is an 8-byte header claiming 2^20 metadata entries.
func hostileMetaRecording() []byte { return header(1 << 20) }

// hostileFrameLenRecording is an 11-byte file whose one frame claims
// maxFrameLen (16 MiB) bytes and holds one.
func hostileFrameLenRecording() []byte {
	return append(binary.AppendUvarint(header(0), maxFrameLen), byte(KindEvent))
}

// hostileMetaStringRecording is a 10-byte header whose first metadata key
// claims maxFrameLen bytes and holds none.
func hostileMetaStringRecording() []byte { return binary.AppendUvarint(header(1), maxFrameLen) }

// allocatedBytes returns the heap bytes allocated while fn runs.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A frame's shard index must lie below maxShards, for event and snapshot
// frames alike: 2^63 would index the reader's per-shard tables with a
// negative int, and a large positive index would grow them without bound.
// The last valid index still decodes.
func TestReaderRejectsHostileShard(t *testing.T) {
	frame := func(kind Kind, shard uint64) []byte {
		body := binary.AppendUvarint([]byte{byte(kind)}, shard)
		if kind == KindEvent {
			body = append(body, 0, 0, 0, 0, 0, 0, 0) // empty topic, at 0, seq 0, empty payload name, no fields
		} else {
			body = append(body, 0, 0) // at 0, no fields
		}
		return withFrame(header(0), body...)
	}
	for _, kind := range []Kind{KindEvent, KindSnapshot} {
		res, err := Replay(bytes.NewReader(frame(kind, maxShards-1)))
		if err != nil || res.Frames != 1 {
			t.Fatalf("%v frame at shard %d: %v", kind, maxShards-1, err)
		}
		for _, shard := range []uint64{maxShards, 1 << 40, 1 << 63, math.MaxUint64} {
			_, err := Replay(bytes.NewReader(frame(kind, shard)))
			if err == nil || !strings.Contains(err.Error(), "shard") {
				t.Fatalf("%v frame at shard %d: error %v, want a shard range error", kind, shard, err)
			}
		}
	}
}

// New refuses a shard count the reader would reject.
func TestNewBoundsShardCount(t *testing.T) {
	for _, n := range []int{0, maxShards + 1} {
		if _, err := New(io.Discard, nil, n); err == nil {
			t.Fatalf("New accepted %d shards", n)
		}
	}
	if _, err := New(io.Discard, nil, maxShards); err != nil {
		t.Fatalf("New(%d shards): %v", maxShards, err)
	}
}

// A count or length read from the file must not size an allocation before
// the bytes behind it are read: a state frame claiming 16 Mi entries in a
// 6-byte body, a header claiming 2^20 metadata entries, a frame claiming
// 16 MiB in an 11-byte file, and a metadata key claiming 16 MiB in a
// 10-byte header each fail after allocating little beyond the reader's
// 64 KiB buffer.
func TestReaderBoundsUntrustedCounts(t *testing.T) {
	const limit = 1 << 20
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"state entries", hostileStateRecording()},
		{"metadata entries", hostileMetaRecording()},
		{"frame length", hostileFrameLenRecording()},
		{"metadata string length", hostileMetaStringRecording()},
	} {
		var err error
		n := allocatedBytes(func() { _, err = Replay(bytes.NewReader(c.data)) })
		if err == nil {
			t.Fatalf("%s: hostile count accepted", c.name)
		}
		if n > limit {
			t.Fatalf("%s: Replay allocated %d bytes before failing, want at most %d", c.name, n, limit)
		}
	}
}

// FuzzReader feeds arbitrary bytes to Replay, which must return a result
// or an error, and never panic. Seeds: a recording, a truncation of it, and
// the hostile inputs above.
func FuzzReader(f *testing.F) {
	data, _, _ := record(f, 3)
	for _, seed := range [][]byte{data, data[:len(data)/2],
		hostileShardRecording(), hostileStateRecording(), hostileMetaRecording(),
		hostileFrameLenRecording(), hostileMetaStringRecording()} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := Replay(bytes.NewReader(b))
		if (res == nil) == (err == nil) {
			t.Fatalf("Replay returned result %v and error %v, want exactly one", res, err)
		}
	})
}
