package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// MultiEngine coordinates several region-sharded Engines under one
// deterministic clock. Each shard owns an independent Engine (its own event
// heap, free list, and RNG stream family), so a fleet of datacenters can be
// simulated with every region draining its local events in parallel while
// the run stays byte-identical for a fixed seed at any worker count.
//
// Time advances in epochs. Every epoch the coordinator computes
//
//	horizon = min over shards of next-event time + lookahead
//
// and each shard drains its local heap up to the horizon concurrently.
// Cross-shard effects are never applied directly: a shard posts them with
// Shard.Send, which buffers into the shard's outbox, and the coordinator
// exchanges outboxes at the epoch barrier in (shard, send-order) sequence.
// Because every send must be scheduled at least `lookahead` after the
// sending instant, and the first event of the epoch fires no earlier than
// the min next-event time, a delivery can never land before the horizon —
// no shard ever observes an out-of-order foreign event, which is the whole
// correctness argument (the classic conservative bounded-lag window).
//
// Determinism follows from three properties: the epoch schedule is a pure
// function of simulation state (never of worker count), shards are mutated
// only by their own goroutine between barriers, and the exchange applies
// cross events in (shard, seq) order so destination engines assign the same
// tie-break sequence numbers every run.
type MultiEngine struct {
	shards    []*Shard
	lookahead Time
	workers   int
	now       Time // barrier clock: the horizon of the last completed epoch
	epochs    uint64
	exchanged uint64
	onBarrier func(epoch uint64, now Time)
}

// Shard is one region's slot in a MultiEngine: its engine plus the outbox
// used for cross-shard sends. A Shard's engine must only be driven by the
// coordinator and only touched by model code running on that shard; the
// selfmaintlint crossshard analyzer enforces that Engine() escapes are
// build-time wiring only.
type Shard struct {
	eng    *Engine
	me     *MultiEngine
	outbox []crossEvent
}

// crossEvent is one buffered cross-shard delivery.
type crossEvent struct {
	dst  int
	at   Time
	name string
	fn   func()
}

// ShardSeed derives the root seed for one shard of a sharded world. Shard 0
// keeps the root seed unchanged — a one-shard MultiEngine is therefore
// seed-for-seed identical to a plain Engine — and higher shards get
// splitmix64-scrambled seeds, so every region draws from an independent RNG
// stream family.
func ShardSeed(root uint64, shard int) uint64 {
	if shard == 0 {
		return root
	}
	z := root ^ (uint64(shard) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewMultiEngine creates a coordinator with the given number of shards.
// lookahead is the minimum cross-shard delivery delay and must be positive:
// it is the window width that lets shards run ahead of each other safely.
// workers bounds how many shards drain concurrently per epoch; 0 means all
// host cores, 1 drains shards inline in shard order (the serial escape
// hatch — output is identical either way).
func NewMultiEngine(seed uint64, shards int, lookahead Time, workers int) *MultiEngine {
	if shards <= 0 {
		panic(fmt.Sprintf("sim: multi-engine with %d shards", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: multi-engine lookahead %v must be positive", lookahead))
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	me := &MultiEngine{lookahead: lookahead, workers: workers}
	me.shards = make([]*Shard, shards)
	for i := range me.shards {
		me.shards[i] = &Shard{eng: NewEngine(ShardSeed(seed, i)), me: me}
	}
	return me
}

// Shards returns the shard count.
func (me *MultiEngine) Shards() int { return len(me.shards) }

// Workers returns the epoch worker bound.
func (me *MultiEngine) Workers() int { return me.workers }

// Now returns the barrier clock: the horizon of the last completed epoch.
func (me *MultiEngine) Now() Time { return me.now }

// Epochs returns how many epoch barriers have completed.
func (me *MultiEngine) Epochs() uint64 { return me.epochs }

// Exchanged returns how many cross-shard events have been delivered.
func (me *MultiEngine) Exchanged() uint64 { return me.exchanged }

// Fired sums events executed across all shards.
func (me *MultiEngine) Fired() uint64 {
	var n uint64
	for _, s := range me.shards {
		n += s.eng.Fired()
	}
	return n
}

// SetBarrierHook installs fn to run on the coordinator's goroutine at the
// end of every epoch barrier — after all shards have drained to the horizon
// and the exchange has been applied, while no shard goroutine is running.
// Observers (the flight recorder's merge point) use it to drain per-shard
// buffers in a deterministic order. The hook must not schedule events or
// touch shard model state; it sees epoch numbers and horizons only, both of
// which are pure functions of simulation state, never of worker count.
func (me *MultiEngine) SetBarrierHook(fn func(epoch uint64, now Time)) {
	me.onBarrier = fn
}

// Shard returns shard i. Model code must not use this to reach a foreign
// shard's engine mid-run; it exists for build-time wiring (the crossshard
// analyzer audits every use outside package sim).
func (me *MultiEngine) Shard(i int) *Shard { return me.shards[i] }

// Engine returns the shard's local engine, for build-time wiring of the
// region model that lives on this shard. Reaching through it into another
// shard mid-run breaks the isolation invariant (crossshard analyzer).
func (s *Shard) Engine() *Engine { return s.eng }

// Send posts fn to run on shard dst at the sending shard's current time
// plus delay. delay must be at least the coordinator's lookahead — that
// bound is what guarantees the destination has not advanced past the
// delivery instant — and shorter delays panic, as they are always a model
// bug. Sends are exchanged at the next epoch barrier in (shard, send-order)
// sequence, so delivery order is deterministic at any worker count. fn runs
// on the destination shard's goroutine and must touch only destination
// state (plus any values captured at send time).
func (s *Shard) Send(dst int, delay Time, name string, fn func()) {
	if dst < 0 || dst >= len(s.me.shards) {
		panic(fmt.Sprintf("sim: cross-shard send %q to shard %d of %d", name, dst, len(s.me.shards)))
	}
	if delay < s.me.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send %q with delay %v below lookahead %v", name, delay, s.me.lookahead))
	}
	s.outbox = append(s.outbox, crossEvent{dst: dst, at: s.eng.Now() + delay, name: name, fn: fn})
}

// RunUntil advances the sharded world to deadline: epochs of parallel local
// drains separated by deterministic exchange barriers, until no shard has
// an event at or before deadline. All shard clocks end at deadline (when it
// is not Forever), exactly like Engine.RunUntil.
func (me *MultiEngine) RunUntil(deadline Time) {
	// Apply sends posted outside any epoch (build-time wiring) so they are
	// visible to the first horizon computation.
	me.exchange()
	for {
		tmin := Forever
		for _, s := range me.shards {
			if at, ok := s.eng.PeekNext(); ok && at < tmin {
				tmin = at
			}
		}
		if tmin == Forever || tmin > deadline {
			break
		}
		horizon := tmin + me.lookahead
		if horizon < tmin { // overflow
			horizon = Forever
		}
		if horizon > deadline {
			horizon = deadline
		}
		me.epochs++
		me.runEpoch(horizon)
		me.exchange()
		me.now = horizon
		if me.onBarrier != nil {
			me.onBarrier(me.epochs, me.now)
		}
	}
	if deadline != Forever {
		for _, s := range me.shards {
			s.eng.RunUntil(deadline)
		}
		if deadline > me.now {
			me.now = deadline
		}
	} else {
		// Queues are empty; settle every clock at the last barrier.
		for _, s := range me.shards {
			s.eng.RunUntil(me.now)
		}
	}
}

// runEpoch drains every shard up to horizon. Shards are partitioned
// round-robin across at most `workers` goroutines; with one worker (or one
// shard) everything runs inline on the caller's goroutine.
func (me *MultiEngine) runEpoch(horizon Time) {
	if me.workers == 1 || len(me.shards) == 1 {
		for _, s := range me.shards {
			s.eng.RunUntil(horizon)
		}
		return
	}
	w := me.workers
	if w > len(me.shards) {
		w = len(me.shards)
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(me.shards); i += w {
				me.shards[i].eng.RunUntil(horizon)
			}
		}(k)
	}
	wg.Wait()
}

// exchange applies every buffered cross-shard event, iterating shards in id
// order and each outbox in send order — the (shard, seq) merge that keeps
// destination-engine tie-breaks identical at any worker count. It runs
// between epochs on the coordinator's goroutine, after the barrier, so it
// may touch every shard safely.
func (me *MultiEngine) exchange() {
	for _, s := range me.shards {
		for i := range s.outbox {
			c := &s.outbox[i]
			me.exchanged++
			me.shards[c.dst].eng.Schedule(c.at, c.name, c.fn)
		}
		for i := range s.outbox {
			s.outbox[i] = crossEvent{} // release fn closures
		}
		s.outbox = s.outbox[:0]
	}
}
