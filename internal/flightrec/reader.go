package flightrec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/sim"
)

// maxFrameLen bounds a single frame so a corrupt length prefix cannot ask
// for gigabytes. Real frames are tens of bytes; trailers a few kilobytes.
const maxFrameLen = 16 << 20

// readStep is the Reader's input buffer size, and the most its body
// buffer grows by before the bytes to fill the growth have arrived.
const readStep = 1 << 16

// maxShards bounds a recording's shard count: New refuses more, and the
// reader rejects a frame whose shard index is not below it, since it grows
// its per-shard tables up to the index a frame names. The largest fleet
// experiment records 101 shards (100 regions and the hub).
const maxShards = 1 << 12

// Reader decodes one flight recording sequentially. It mirrors the
// Recorder's delta and interning state, growing its per-shard tables on
// demand (the shard count is implied by the frames, not the header, so old
// readers need no header change when shard counts grow).
type Reader struct {
	br *bufio.Reader
	// buf holds the frame body or metadata string being decoded; it is
	// reused, so nothing decoded from it may alias it.
	buf  []byte
	strs []string
	meta map[string]string

	prevAt      []sim.Time
	prevSeq     []uint64
	prevEpochAt sim.Time
	index       uint64
}

// NewReader opens a recording: it validates the magic and version and
// reads the metadata block.
func NewReader(rd io.Reader) (*Reader, error) {
	r := &Reader{br: bufio.NewReaderSize(rd, readStep)}
	var m [4]byte
	if _, err := io.ReadFull(r.br, m[:]); err != nil {
		return nil, fmt.Errorf("flightrec: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("flightrec: not a flight recording (magic %q)", m[:])
	}
	ver, err := r.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading version: %w", err)
	}
	if ver == 0 || ver > version {
		return nil, fmt.Errorf("flightrec: unsupported container version %d (reader speaks <= %d)", ver, version)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading metadata count: %w", err)
	}
	r.meta = make(map[string]string) // not presized: n is untrusted until its entries are read
	for i := uint64(0); i < n; i++ {
		k, err := r.readRaw()
		if err != nil {
			return nil, fmt.Errorf("flightrec: reading metadata key: %w", err)
		}
		v, err := r.readRaw()
		if err != nil {
			return nil, fmt.Errorf("flightrec: reading metadata value: %w", err)
		}
		r.meta[k] = v
	}
	return r, nil
}

// Meta returns the run metadata from the header.
func (r *Reader) Meta() map[string]string { return r.meta }

func (r *Reader) readRaw() (string, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return "", err
	}
	if n > maxFrameLen {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b, err := r.read(int(n))
	return string(b), err
}

// read reads the next n bytes into r.buf and returns them. The buffer
// grows by at most readStep ahead of the bytes read, so a length the input
// does not back costs little more than the bytes it holds. Input ending
// before n bytes is io.ErrUnexpectedEOF, never io.EOF: only Next's length
// read may report a clean end.
func (r *Reader) read(n int) ([]byte, error) {
	b := r.buf[:0]
	for len(b) < n {
		step := min(n-len(b), readStep)
		b = slices.Grow(b, step)
		if _, err := io.ReadFull(r.br, b[len(b):len(b)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		b = b[:len(b)+step]
	}
	r.buf = b
	return b, nil
}

// Next returns the next frame. A clean end of stream returns io.EOF; a
// stream cut mid-frame returns a truncation error.
func (r *Reader) Next() (Frame, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("flightrec: reading frame length: %w", err)
	}
	if n == 0 || n > maxFrameLen {
		return Frame{}, fmt.Errorf("flightrec: frame length %d out of range", n)
	}
	body, err := r.read(int(n))
	if err != nil {
		return Frame{}, fmt.Errorf("flightrec: truncated frame (%d bytes wanted): %w", n, err)
	}
	d := &dec{b: body, strs: &r.strs}
	f := r.decodeBody(d)
	if d.err != nil {
		return Frame{}, d.err
	}
	f.Index = r.index
	r.index++
	return f, nil
}

func (r *Reader) grow(shard int) {
	for len(r.prevAt) <= shard {
		r.prevAt = append(r.prevAt, 0)
		r.prevSeq = append(r.prevSeq, 0)
	}
}

func (r *Reader) decodeBody(d *dec) Frame {
	if len(d.b) == 0 {
		d.fail("empty frame body")
		return Frame{}
	}
	kind := Kind(d.b[0])
	d.pos = 1
	switch kind {
	case KindEvent:
		shard := d.shard()
		r.grow(shard)
		topic := d.s()
		at := r.prevAt[shard] + sim.Time(d.u())
		seq := r.prevSeq[shard] + d.u()
		name := d.s()
		fs := d.fields()
		if d.err != nil {
			return Frame{}
		}
		r.prevAt[shard] = at
		r.prevSeq[shard] = seq
		return Frame{Kind: kind, Shard: shard, Topic: topic, At: at, Seq: seq,
			Payload: decodePayload(name, fs)}
	case KindSnapshot:
		shard := d.shard()
		r.grow(shard)
		at := r.prevAt[shard] + sim.Time(d.u())
		fs := d.fields()
		if d.err != nil {
			return Frame{}
		}
		r.prevAt[shard] = at
		return Frame{Kind: kind, Shard: shard, At: at, Snap: Snap{
			Avail: fs.f(1), LinksDown: int(fs.i(2)), OpenTix: int(fs.i(3)), Fired: fs.u(4)}}
	case KindState:
		shard := d.shard()
		n := d.u()
		// An entry takes at least three bytes (key, value kind, value), so
		// the body bounds the count before anything is allocated for it.
		if d.err != nil || n > uint64(len(d.b)-d.pos)/3 {
			d.fail("state frame with %d entries in %d bytes", n, len(d.b)-d.pos)
			return Frame{}
		}
		kvs := make([]KV, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			kv := KV{Key: d.s(), kind: kvKind(d.u())}
			switch kv.kind {
			case kvInt:
				kv.i = d.i()
			case kvFloat:
				kv.f = d.f()
			default:
				d.fail("unknown state value kind %d", kv.kind)
			}
			kvs = append(kvs, kv)
		}
		if d.err != nil {
			return Frame{}
		}
		return Frame{Kind: kind, Shard: shard, State: kvs}
	case KindEpoch:
		epoch := d.u()
		at := r.prevEpochAt + sim.Time(d.u())
		if d.err != nil {
			return Frame{}
		}
		r.prevEpochAt = at
		return Frame{Kind: kind, Epoch: epoch, At: at}
	case KindTrailer:
		frames := d.u()
		fp := uint64(0)
		if d.err == nil {
			if d.pos+8 > len(d.b) {
				d.fail("truncated trailer fingerprint")
			} else {
				fp = binary.LittleEndian.Uint64(d.b[d.pos:])
				d.pos += 8
			}
		}
		render := d.raw()
		if d.err != nil {
			return Frame{}
		}
		return Frame{Kind: kind, Frames: frames, Fingerprint: fp, Render: render}
	default:
		// A frame kind this reader predates: keep the body so diffs can
		// still compare streams, and keep going.
		return Frame{Kind: kind, Raw: append([]byte(nil), d.b[1:]...)}
	}
}

// Result is a replayed recording: its metadata, the summary re-derived
// from the decoded frames, and the trailer the live run wrote.
type Result struct {
	Meta    map[string]string
	Summary *Summary
	Trailer *Frame // nil when the stream ended without one (interrupted run)
	Frames  uint64 // decoded frames, trailer excluded
}

// Match reports whether the replayed fingerprint equals the live one — the
// lossless-round-trip check.
func (res *Result) Match() bool { return res.Verify() == nil }

// Verify is Match with the reason: nil when the replay reproduces the
// recorded run, otherwise an error saying that the recording has no
// trailer or giving both fingerprints.
func (res *Result) Verify() error {
	if res.Trailer == nil {
		return errors.New("flightrec: no trailer, the recording was interrupted")
	}
	if got, want := res.Summary.Fingerprint(), res.Trailer.Fingerprint; got != want {
		return fmt.Errorf("flightrec: replayed fingerprint %016x != recorded %016x: the recording is corrupt or the codec is lossy", got, want)
	}
	return nil
}

// Replay decodes an entire recording into a fresh Summary without any
// simulation. Every frame flows through the same accumulator the live
// Recorder used, so Match proves the on-disk form carries everything the
// report derivation consumes.
func Replay(rd io.Reader) (*Result, error) {
	rr, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	res := &Result{Meta: rr.Meta(), Summary: newSummary(rr.Meta())}
	for {
		f, err := rr.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		if f.Kind == KindTrailer {
			t := f
			res.Trailer = &t
			continue
		}
		res.Summary.Add(f)
		res.Frames++
	}
}
