package flightrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bus"
	"repro/internal/detsort"
	"repro/internal/sim"
)

// Recorder writes one flight recording. It is attached as a bus tap (one
// per shard) and fed barrier callbacks by the multi-engine coordinator:
//
//   - single-shard worlds encode every frame in place, on the world's own
//     goroutine (bus taps run synchronously inside Publish);
//   - sharded worlds buffer frames per shard — each shard's tap runs only
//     on that shard's goroutine, so the buffers are race-free without
//     locks — and Barrier merges them in shard-id order on the
//     coordinator's goroutine, which is what makes the recording
//     byte-identical at any worker count.
//
// Recorder owns the buffering; Close flushes it and writes the trailer but
// does not close the underlying writer.
type Recorder struct {
	bw     *bufio.Writer
	e      *enc
	shards int

	pending     [][]Frame
	prevAt      []sim.Time
	prevSeq     []uint64
	prevEpochAt sim.Time

	convert []func(any) (Payload, bool)
	sum     *Summary
	frames  uint64
	err     error
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithConverter adds a payload converter consulted after the built-in bus
// conversions — the hook layers above flightrec use to record their own
// payload types (fleet summaries, transfer notes) without flightrec
// importing them. Converters must be pure: taps may call them from shard
// goroutines.
func WithConverter(fn func(any) (Payload, bool)) Option {
	return func(r *Recorder) { r.convert = append(r.convert, fn) }
}

// New starts a recording: it writes the header (magic, version, metadata
// sorted by key) immediately. shards is the shard count frames will be
// tagged with; plain worlds pass 1.
func New(w io.Writer, meta map[string]string, shards int, opts ...Option) (*Recorder, error) {
	if shards < 1 {
		return nil, fmt.Errorf("flightrec: %d shards", shards)
	}
	r := &Recorder{
		bw:      bufio.NewWriterSize(w, 1<<16),
		e:       newEnc(),
		shards:  shards,
		pending: make([][]Frame, shards),
		prevAt:  make([]sim.Time, shards),
		prevSeq: make([]uint64, shards),
		sum:     newSummary(meta),
	}
	for _, opt := range opts {
		opt(r)
	}
	r.e.b = append(r.e.b, magic[:]...)
	r.e.b = append(r.e.b, version)
	keys := detsort.Keys(meta)
	r.e.u(uint64(len(keys)))
	for _, k := range keys {
		r.e.raw(k)
		r.e.raw(meta[k])
	}
	if _, err := r.bw.Write(r.e.b); err != nil {
		r.err = err
	}
	r.e.b = r.e.b[:0]
	return r, r.err
}

// Err returns the first write or sequencing error, if any.
func (r *Recorder) Err() error { return r.err }

// TapBus attaches the recorder to a bus as a tap recording onto the given
// shard, returning the subscription for detaching.
func (r *Recorder) TapBus(b *bus.Bus, shard int) *bus.Subscription {
	return b.Tap(func(ev bus.Event) { r.Tap(shard, ev) })
}

// Tap records one bus event for the given shard. On a sharded recorder it
// only appends to the shard's buffer (plus payload conversion), so it is
// safe from that shard's goroutine while other shards run concurrently.
func (r *Recorder) Tap(shard int, ev bus.Event) {
	r.add(Frame{Kind: KindEvent, Shard: shard, At: ev.At, Seq: ev.Seq,
		Topic: string(ev.Topic), Payload: r.convertAny(ev.Payload)})
}

// Snapshot records one periodic metric sample for the given shard.
func (r *Recorder) Snapshot(shard int, at sim.Time, s Snap) {
	r.add(Frame{Kind: KindSnapshot, Shard: shard, At: at, Snap: s})
}

// State records end-of-run key/values for one shard — the scalars a
// report is rebuilt from on replay.
func (r *Recorder) State(shard int, kvs []KV) {
	r.add(Frame{Kind: KindState, Shard: shard, State: kvs})
}

func (r *Recorder) convertAny(p any) Payload {
	if pl, ok := convertPayload(p); ok {
		return pl
	}
	for _, fn := range r.convert {
		if pl, ok := fn(p); ok {
			return pl
		}
	}
	return &PGeneric{TypeName: fmt.Sprintf("%T", p), Text: fmt.Sprint(p)}
}

func (r *Recorder) add(f Frame) {
	if r.shards == 1 {
		r.writeFrame(f)
		return
	}
	r.pending[f.Shard] = append(r.pending[f.Shard], f)
}

// Barrier flushes every shard's buffered frames in shard-id order and
// stamps an epoch frame — the merge point that keeps a sharded recording
// byte-identical at any worker count. Call it from the multi-engine's
// barrier hook: it runs on the coordinator's goroutine while no shard is.
func (r *Recorder) Barrier(epoch uint64, now sim.Time) {
	r.flushPending()
	r.writeFrame(Frame{Kind: KindEpoch, Epoch: epoch, At: now})
}

func (r *Recorder) flushPending() {
	for i := range r.pending {
		for j := range r.pending[i] {
			r.writeFrame(r.pending[i][j])
			r.pending[i][j] = Frame{} // release payload references
		}
		r.pending[i] = r.pending[i][:0]
	}
}

// Close flushes buffered frames, writes the trailer (frame count plus the
// live summary's fingerprint and render), and flushes the buffered writer.
// The returned Summary is the live accumulation; replaying the file must
// reproduce its fingerprint exactly.
func (r *Recorder) Close() (*Summary, error) {
	r.flushPending()
	t := Frame{Kind: KindTrailer, Frames: r.frames,
		Fingerprint: r.sum.Fingerprint(), Render: r.sum.Render()}
	r.encodeFrame(t) // the trailer is derived from the summary, never added to it
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.sum, r.err
}

// writeFrame accumulates and encodes one frame.
func (r *Recorder) writeFrame(f Frame) {
	f.Index = r.frames
	r.frames++
	r.sum.Add(f)
	r.encodeFrame(f)
}

func (r *Recorder) encodeFrame(f Frame) {
	if r.err != nil {
		return
	}
	start := len(r.e.b)
	r.encodeBody(f)
	body := r.e.b[start:]
	var lenbuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenbuf[:], uint64(len(body)))
	if _, err := r.bw.Write(lenbuf[:n]); err != nil {
		r.err = err
	} else if _, err := r.bw.Write(body); err != nil {
		r.err = err
	}
	r.e.b = r.e.b[:start]
}

func (r *Recorder) encodeBody(f Frame) {
	e := r.e
	e.b = append(e.b, byte(f.Kind))
	switch f.Kind {
	case KindEvent:
		e.u(uint64(f.Shard))
		e.s(f.Topic)
		e.u(r.deltaAt(f))
		e.u(f.Seq - r.prevSeq[f.Shard])
		r.prevSeq[f.Shard] = f.Seq
		e.s(f.Payload.PayloadKind())
		f.Payload.encodeFields(e)
		e.end()
	case KindSnapshot:
		e.u(uint64(f.Shard))
		e.u(r.deltaAt(f))
		e.tagF(1, f.Snap.Avail)
		e.tagI(2, int64(f.Snap.LinksDown))
		e.tagI(3, int64(f.Snap.OpenTix))
		e.tagU(4, f.Snap.Fired)
		e.end()
	case KindState:
		e.u(uint64(f.Shard))
		e.u(uint64(len(f.State)))
		for _, kv := range f.State {
			e.s(kv.Key)
			e.u(uint64(kv.kind))
			switch kv.kind {
			case kvInt:
				e.i(kv.i)
			case kvFloat:
				e.f(kv.f)
			}
		}
	case KindEpoch:
		e.u(f.Epoch)
		if f.At < r.prevEpochAt {
			r.fail(fmt.Errorf("flightrec: epoch %d horizon %v before previous %v", f.Epoch, f.At, r.prevEpochAt))
			return
		}
		e.u(uint64(f.At - r.prevEpochAt))
		r.prevEpochAt = f.At
	case KindTrailer:
		e.u(f.Frames)
		e.b = binary.LittleEndian.AppendUint64(e.b, f.Fingerprint)
		e.raw(f.Render)
	default:
		r.fail(fmt.Errorf("flightrec: cannot encode frame kind %v", f.Kind))
	}
}

// deltaAt encodes the per-shard time delta shared by event and snapshot
// frames. Time going backwards within a shard is a sequencing bug (taps
// fire in virtual-time order), latched as an error rather than silently
// wrapping the unsigned delta.
func (r *Recorder) deltaAt(f Frame) uint64 {
	if f.At < r.prevAt[f.Shard] {
		r.fail(fmt.Errorf("flightrec: shard %d time went backwards: %v after %v", f.Shard, f.At, r.prevAt[f.Shard]))
		return 0
	}
	d := uint64(f.At - r.prevAt[f.Shard])
	r.prevAt[f.Shard] = f.At
	return d
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
