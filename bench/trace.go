package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// eventLayers maps every event name the program schedules to the module
// that owns it. Names are the string literals passed to Engine.Schedule,
// After and Every, Shard.Send, and the robot executor's primitive steps;
// TestEveryEventNameHasALayer fails when a name is missing or stale.
var eventLayers = map[string]string{
	// core: the controller's Plan and Act stages.
	"dispatch":            "core",
	"util-deferred":       "core",
	"park-backstop":       "core",
	"l1-operator-arrives": "core",
	"await-supervision":   "core",
	"unit-stolen-retry":   "core",
	"tech-stolen-retry":   "core",
	"drain-settle":        "core",
	"stockout-retry":      "core",
	"escalate-human":      "core",
	"chronic-retry":       "core",
	"ladder-escalate":     "core",
	"predict-cycle":       "core",
	"predict-train":       "core",
	"act-watchdog":        "core",
	"watchdog-retry":      "core",

	"fault-onset":       "faults",
	"precursor-start":   "faults",
	"precursor-flap":    "faults",
	"flap":              "faults",
	"masked-recurrence": "faults",

	"tech-dispatch": "workforce",
	"tech-walk":     "workforce",
	"tech-work":     "workforce",

	"restock": "inventory",

	"chaos-slow-report":     "exec",
	"chaos-spurious-report": "exec",

	"flightrec-snapshot": "flightrec",

	"region-summary": "fleet",
	"summary-to-hub": "fleet",
	"lend-request":   "fleet",
	"lend-ack":       "fleet",
	"unit-arrives":   "fleet",
	"overlay-sample": "fleet",
	"trunk-notice":   "fleet",
	"trunk-repair":   "fleet",

	// Events of the experiments in internal/scenario; no workload here fires
	// them.
	"storm":          "scenario",
	"storm-watch":    "scenario",
	"break":          "scenario",
	"latency-sample": "scenario",
	"goodput-sample": "scenario",
}

// robotPrefix names the robot executor's primitives (robot-navigate,
// robot-swap, ...), mapped by prefix so a new primitive needs no entry.
const robotPrefix = "robot-"

// layerOf returns the module owning an event name, or "other".
func layerOf(name string) string {
	if name == tailEvent {
		return "sim"
	}
	if l, ok := eventLayers[name]; ok {
		return l
	}
	if strings.HasPrefix(name, robotPrefix) {
		return "robot"
	}
	return "other"
}

// tailEvent is the pseudo event charged with a shard worker's time from its
// last event of an epoch to the barrier: that event's own remainder plus the
// worker's wait for the slowest worker. It belongs to the sim layer's
// MultiEngine and is left out of event self time.
const tailEvent = "(epoch-tail)"

// evKey identifies one per-event aggregate: the span of the op the events
// ran under (a cell, or a workload's traced pass) and an event name.
type evKey struct {
	op   int
	name string
}

// evAgg aggregates every firing of one event name within one op.
type evAgg struct {
	count  uint64
	selfNs int64
	hist   hist
}

// evClock attributes host time to events from the engine's tracer hook:
// the time between consecutive callbacks is charged to the earlier event.
// Self time is therefore inclusive of everything the event's callback runs
// synchronously (a dispatch includes the router drain it triggers, a fault
// onset the telemetry → bus → triage → invalidation chain). One evClock
// serves one goroutine; the fleet workload keeps one per shard worker.
type evClock struct {
	aggs map[evKey]*evAgg
	op   int
	last time.Time
	name string
	open bool
}

func newEvClock() *evClock { return &evClock{aggs: make(map[evKey]*evAgg)} }

// fire is the sim.Tracer.
func (c *evClock) fire(_ sim.Time, name string) {
	now := time.Now()
	c.closeAt(now, "")
	c.last, c.name, c.open = now, name, true
}

// close charges the open event up to now, to chargeTo when set (else to the
// event itself). Call it when the engine returns control, so time spent
// outside the engine is never charged to an event.
func (c *evClock) close(chargeTo string) { c.closeAt(time.Now(), chargeTo) }

func (c *evClock) closeAt(now time.Time, chargeTo string) {
	if !c.open {
		return
	}
	c.open = false
	name := c.name
	if chargeTo != "" {
		name = chargeTo
	}
	k := evKey{c.op, name}
	a := c.aggs[k]
	if a == nil {
		a = &evAgg{}
		c.aggs[k] = a
	}
	d := now.Sub(c.last).Nanoseconds()
	a.count++
	a.selfNs += d
	a.hist.add(d)
}

// span is one timed interval of a traced run. Times are microseconds since
// the trace started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// trace is what a traced run records: spans at the boundary of every call
// into the program, kept in memory, plus per-(op, event) aggregates from
// the engine tracers. It is written once, when the run ends.
type trace struct {
	start  time.Time
	spans  []span
	events map[evKey]*evAgg
}

func newTrace() *trace {
	// Span ids start at 1 so Parent 0 means "root".
	return &trace{start: time.Now(), spans: []span{{}}, events: make(map[evKey]*evAgg)}
}

func (t *trace) us(at time.Time) float64 { return float64(at.Sub(t.start).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id.
func (t *trace) begin(parent int, name, detail string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Start: t.us(time.Now())})
	return id
}

func (t *trace) end(id int) { t.spans[id].End = t.us(time.Now()) }

// interval records an already-finished span.
func (t *trace) interval(parent int, name, detail string, from, to time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Detail: detail, Start: t.us(from), End: t.us(to)})
}

// absorb merges an event clock's aggregates into the trace and resets it.
func (t *trace) absorb(c *evClock) {
	for k, a := range c.aggs {
		dst := t.events[k]
		if dst == nil {
			dst = &evAgg{}
			t.events[k] = dst
		}
		dst.count += a.count
		dst.selfNs += a.selfNs
		dst.hist.merge(&a.hist)
	}
	clear(c.aggs)
}

// layerSelf sums self time and firings per layer over every op.
func (t *trace) layerSelf() (selfNs map[string]int64, events uint64) {
	selfNs = make(map[string]int64)
	for k, a := range t.events {
		if k.name == tailEvent {
			continue
		}
		selfNs[layerOf(k.name)] += a.selfNs
		events += a.count
	}
	return selfNs, events
}

// eventHist merges one event name's histograms across ops.
func (t *trace) eventHist(name string) (h hist, total int64) {
	for k, a := range t.events {
		if k.name == name {
			h.merge(&a.hist)
			total += a.selfNs
		}
	}
	return h, total
}

// traceEvent is one (op, event) aggregate in the written trace.
type traceEvent struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Count  uint64  `json:"count"`
	SelfMs float64 `json:"self_ms"`
	P50Us  float64 `json:"self_us_p50"`
	P99Us  float64 `json:"self_us_p99"`
}

// write emits the trace as one JSON line: the workload, its spans, and the
// per-(op, event) aggregates.
func (t *trace) write(w io.Writer, workload string) error {
	evs := make([]traceEvent, 0, len(t.events))
	for k, a := range t.events {
		p50, _ := a.hist.percentile(50)
		p99, _ := a.hist.percentile(99)
		evs = append(evs, traceEvent{Op: k.op, Name: k.name, Layer: layerOf(k.name), Count: a.count,
			SelfMs: float64(a.selfNs) / 1e6, P50Us: p50 / 1e3, P99Us: p99 / 1e3})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Op != evs[j].Op {
			return evs[i].Op < evs[j].Op
		}
		return evs[i].Name < evs[j].Name
	})
	return json.NewEncoder(w).Encode(struct {
		Workload string       `json:"workload"`
		Spans    []span       `json:"spans"`
		Events   []traceEvent `json:"events"`
	}{workload, t.spans[1:], evs})
}
