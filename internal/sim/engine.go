package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

// event is a scheduled callback in the simulation. Event structs are pooled:
// once an event fires or is cancelled its struct returns to the engine's
// free list and is reused by a later Schedule, so steady-state scheduling
// allocates nothing. External code holds Handles, never event pointers.
type event struct {
	at     Time
	seq    uint64 // tie-break: schedule order within the same instant
	name   string
	fn     func()
	index  int // heap index, -1 when not queued
	engine *Engine
}

// Handle refers to a scheduled event. It is a small comparable value, safe
// to copy and to keep after the event has fired: because event structs are
// recycled, the handle captures the scheduling sequence number and every
// operation first checks it, so a stale handle to a reused struct is inert
// (Pending reports false, Cancel does nothing).
type Handle struct {
	ev  *event
	seq uint64
}

// Pending reports whether the referenced event is still queued to fire.
// The zero Handle reports false.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.seq == h.seq && h.ev.index >= 0
}

// Cancel removes the event from the queue. It returns true if the event was
// still pending, false if it had already fired, been cancelled, or the
// handle is stale or zero.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	ev := h.ev
	heap.Remove(&ev.engine.queue, ev.index)
	ev.index = -1
	ev.engine.recycle(ev)
	return true
}

// eventQueue is a min-heap ordered by (at, seq) so that simultaneous events
// fire in the order they were scheduled — the property that makes runs
// deterministic.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Tracer receives a notification immediately before each event fires.
// It is intended for debugging and for building event-trace golden tests.
type Tracer func(at Time, name string)

// Engine is a deterministic discrete-event simulation engine. It is not safe
// for concurrent use: all model code runs single-threaded inside Run, which
// is what makes simulated years cheap and runs reproducible.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	seed   uint64
	rngs   map[string]*Stream
	tracer Tracer
	fired  uint64
	free   []*event // recycled event structs
}

// NewEngine returns an engine at the simulation epoch whose named RNG
// streams are derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{seed: seed, rngs: make(map[string]*Stream)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// PeekNext returns the instant of the earliest pending event. The second
// result is false when the queue is empty. The shard coordinator uses this
// to compute each epoch's horizon without disturbing the queue.
//
//selfmaint:hotpath
func (e *Engine) PeekNext() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// SetTracer installs fn to observe every fired event; nil disables tracing.
func (e *Engine) SetTracer(fn Tracer) { e.tracer = fn }

// recycle returns a fired or cancelled event struct to the free list. The
// struct keeps its seq until reuse, so outstanding Handles stay valid-but-
// inert: their seq matches but index is -1.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.name = ""
	e.free = append(e.free, ev)
}

// Schedule queues fn to run at instant at. Scheduling in the past (before
// Now) panics: it is always a model bug, and silently reordering time would
// corrupt every downstream statistic. name is used only for diagnostics.
//
//selfmaint:hotpath
func (e *Engine) Schedule(at Time, name string, fn func()) Handle {
	if at < e.now {
		//lint:allow hotpathalloc panic path only; a past-scheduling bug aborts the run, formatting cost is irrelevant
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//lint:allow hotpathalloc free-list miss; amortized away once the pool warms up (steady state reuses structs)
		ev = &event{}
	}
	*ev = event{at: at, seq: e.seq, name: name, fn: fn, engine: e}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev: ev, seq: ev.seq}
}

// After queues fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d Time, name string, fn func()) Handle {
	return e.Schedule(e.now+d, name, fn)
}

// Ticker repeatedly reschedules a callback at a fixed interval until stopped.
type Ticker struct {
	h       Handle
	stopped bool
}

// Stop cancels future ticks. It is safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// Every schedules fn to run every interval, first at start. The callback
// receives the tick instant. interval must be positive.
func (e *Engine) Every(start Time, interval Time, name string, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: ticker %q with non-positive interval %v", name, interval))
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		at := e.now
		if !t.stopped {
			t.h = e.Schedule(at+interval, name, tick)
		}
		fn(at)
	}
	t.h = e.Schedule(start, name, tick)
	return t
}

// Step fires the single earliest pending event, advancing the clock to its
// instant. It reports whether an event was fired.
//
//selfmaint:hotpath
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.fired++
	if e.tracer != nil {
		e.tracer(ev.at, ev.name)
	}
	fn := ev.fn
	// Recycle before running fn: the struct may be reused by events fn
	// schedules; any handle to this firing gets a fresh seq mismatch.
	e.recycle(ev)
	fn()
	return true
}

// RunUntil fires events in order until the queue is empty or the next event
// would fire strictly after deadline, then advances the clock to deadline if
// the deadline is later than the last event fired.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if deadline != Forever && deadline > e.now {
		e.now = deadline
	}
}

// RNG returns the named pseudo-random stream, creating it on first use.
// Streams are independent of one another and of scheduling order: the stream
// named "faults/flap" yields the same sequence regardless of how many draws
// other streams have made, which keeps subsystems statistically decoupled
// across configuration changes.
func (e *Engine) RNG(name string) *Stream {
	if s, ok := e.rngs[name]; ok {
		return s
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	derived := h.Sum64()
	s := &Stream{Rand: rand.New(rand.NewPCG(e.seed, derived)), name: name}
	e.rngs[name] = s
	return s
}
