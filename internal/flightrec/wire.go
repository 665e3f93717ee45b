// Package flightrec is the durable flight recorder for deterministic runs:
// a compact binary, schema-evolving, delta-compressed capture of the full
// event stream — every bus event on every topic, journal entries, periodic
// metric snapshots, end-of-run state, and run metadata (seed, level,
// config). The in-memory rings (core.journal, the control-plane hub's
// retention ring) drop history; a recording keeps all of it, and because the simulation is
// deterministic, capture-once/analyze-many works: a recording replays into
// the exact report the live run produced, without re-simulating.
//
// File layout:
//
//	header:  magic "SMFR", version byte, metadata (sorted key/value strings)
//	frames:  uvarint length prefix, then kind byte + kind-specific body
//	trailer: a final frame carrying the frame count, the live summary's
//	         fingerprint and its rendered form
//
// Frames are delta-compressed per shard: event times and sequence numbers
// are encoded as deltas against the previous frame of the same shard, and
// every string (topic, link name, payload kind) is interned into a
// file-wide table, so steady-state events cost a few bytes each.
//
// Schema evolution rules (see DESIGN.md):
//
//   - The version byte covers the container only; it bumps when the frame
//     framing itself changes, never for payload growth.
//   - Payload kinds are append-only and identified by interned name
//     strings; a reader that does not know a kind decodes its fields
//     generically and keeps going.
//   - Payload fields are tagged. Tags are append-only per kind, unknown
//     tags are skipped by wire type, and absent tags decode as zero —
//     writers omit zero-valued fields, which doubles as compression.
package flightrec

import (
	"encoding/binary"
	"fmt"
	"math"
)

var magic = [4]byte{'S', 'M', 'F', 'R'}

// version is the container version. See the schema-evolution rules above:
// payload growth must not bump it.
const version = 1

// Wire types for tagged payload fields. A field is encoded as
// uvarint(tag<<2|wire) followed by a wire-type-dependent value; the key 0
// (tag 0) terminates the field list. Readers skip unknown tags by wire
// type, which is what lets payload schemas grow without a version bump.
const (
	wireUint  = 0 // uvarint
	wireSint  = 1 // zigzag varint
	wireStr   = 2 // interned string
	wireFloat = 3 // 8-byte little-endian IEEE 754 bits
)

// enc builds header and frame bodies. One enc lives for the whole file:
// the string intern table spans frames, so a topic or link name costs its
// bytes once and a one-or-two-byte id forever after — the bulk of the
// compression alongside the per-shard time/seq deltas.
type enc struct {
	b    []byte
	strs map[string]uint64
}

func newEnc() *enc { return &enc{strs: make(map[string]uint64)} }

func (e *enc) u(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// raw writes a length-prefixed string without interning (header metadata,
// the trailer render).
func (e *enc) raw(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// s writes an interned string: id+1 for a known string, or 0 followed by
// the raw bytes, implicitly assigning the next table id.
func (e *enc) s(s string) {
	if id, ok := e.strs[s]; ok {
		e.u(id + 1)
		return
	}
	e.u(0)
	e.raw(s)
	e.strs[s] = uint64(len(e.strs))
}

// Tagged-field writers. Zero values are omitted: absent tags decode as
// zero, so omission is lossless and keeps sparse payloads tiny.

func (e *enc) tagU(tag uint64, v uint64) {
	if v == 0 {
		return
	}
	e.u(tag<<2 | wireUint)
	e.u(v)
}

func (e *enc) tagI(tag uint64, v int64) {
	if v == 0 {
		return
	}
	e.u(tag<<2 | wireSint)
	e.i(v)
}

func (e *enc) tagS(tag uint64, s string) {
	if s == "" {
		return
	}
	e.u(tag<<2 | wireStr)
	e.s(s)
}

func (e *enc) tagF(tag uint64, v float64) {
	if v == 0 {
		return
	}
	e.u(tag<<2 | wireFloat)
	e.f(v)
}

func (e *enc) tagB(tag uint64, v bool) {
	if v {
		e.tagU(tag, 1)
	}
}

// end terminates a tagged field list.
func (e *enc) end() { e.u(0) }

// dec decodes one frame body. The string table is shared across frames and
// owned by the Reader; errors are sticky so call sites stay linear.
type dec struct {
	b    []byte
	pos  int
	strs *[]string
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("flightrec: "+format, args...)
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// shard decodes a frame's shard index, failing on one no recorder writes
// (see maxShards).
func (d *dec) shard() int {
	v := d.u()
	if v >= maxShards {
		d.fail("shard %d out of range (limit %d)", v, maxShards)
		return 0
	}
	return int(v)
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) f() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.fail("truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return v
}

func (d *dec) raw() string {
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.pos) {
		d.fail("truncated string (%d bytes) at offset %d", n, d.pos)
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *dec) s() string {
	id := d.u()
	if d.err != nil {
		return ""
	}
	if id == 0 {
		s := d.raw()
		if d.err != nil {
			return ""
		}
		*d.strs = append(*d.strs, s)
		return s
	}
	if id-1 >= uint64(len(*d.strs)) {
		d.fail("string id %d beyond intern table size %d", id, len(*d.strs))
		return ""
	}
	return (*d.strs)[id-1]
}

// field is one decoded tagged field. Unknown tags survive decoding, so a
// reader built before a schema addition can still render and diff frames.
type field struct {
	tag  uint64
	wire uint64
	u    uint64
	i    int64
	f    float64
	s    string
}

// fieldSet is a decoded tagged field list with typed accessors; absent
// tags read as zero, per the schema-evolution rules.
type fieldSet []field

func (fs fieldSet) lookup(tag uint64) (field, bool) {
	for _, f := range fs {
		if f.tag == tag {
			return f, true
		}
	}
	return field{}, false
}

func (fs fieldSet) u(tag uint64) uint64 {
	f, _ := fs.lookup(tag)
	return f.u
}

func (fs fieldSet) i(tag uint64) int64 {
	f, _ := fs.lookup(tag)
	return f.i
}

func (fs fieldSet) s(tag uint64) string {
	f, _ := fs.lookup(tag)
	return f.s
}

func (fs fieldSet) f(tag uint64) float64 {
	f, _ := fs.lookup(tag)
	return f.f
}

func (fs fieldSet) b(tag uint64) bool { return fs.u(tag) != 0 }

// fields decodes a tagged field list through its terminator. Interned
// strings inside skipped fields are still resolved, keeping the table in
// sync even when every tag is unknown.
func (d *dec) fields() fieldSet {
	var fs fieldSet
	for {
		key := d.u()
		if d.err != nil || key == 0 {
			return fs
		}
		fd := field{tag: key >> 2, wire: key & 3}
		switch fd.wire {
		case wireUint:
			fd.u = d.u()
		case wireSint:
			fd.i = d.i()
		case wireStr:
			fd.s = d.s()
		case wireFloat:
			fd.f = d.f()
		}
		fs = append(fs, fd)
	}
}
