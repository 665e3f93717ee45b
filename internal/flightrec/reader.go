package flightrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sim"
)

// maxFrameLen bounds a single frame so a corrupt length prefix cannot ask
// for gigabytes. Real frames are tens of bytes; trailers a few kilobytes.
const maxFrameLen = 16 << 20

// Reader decodes one flight recording sequentially. It mirrors the
// Recorder's delta and interning state, growing its per-shard tables on
// demand (the shard count is implied by the frames, not the header, so old
// readers need no header change when shard counts grow).
type Reader struct {
	br   *bufio.Reader
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
	r := &Reader{br: bufio.NewReaderSize(rd, 1<<16)}
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
	r.meta = make(map[string]string, n)
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
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
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
	body := make([]byte, n)
	if _, err := io.ReadFull(r.br, body); err != nil {
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
		shard := int(d.u())
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
		shard := int(d.u())
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
		shard := int(d.u())
		n := d.u()
		if d.err != nil || n > maxFrameLen {
			d.fail("state frame with %d entries", n)
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
func (res *Result) Match() bool {
	return res.Trailer != nil && res.Summary.Fingerprint() == res.Trailer.Fingerprint
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
