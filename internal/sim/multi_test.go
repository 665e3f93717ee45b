package sim

import (
	"fmt"
	"strings"
	"testing"
)

// toyShardModel schedules a deterministic workload on every shard of me:
// each shard runs a periodic local event that draws from its RNG and
// occasionally posts a cross-shard value to the next shard. The returned
// traces record, per shard, everything that happened in order.
func toyShardModel(me *MultiEngine, interval Time, sends bool) []*strings.Builder {
	traces := make([]*strings.Builder, me.Shards())
	for i := 0; i < me.Shards(); i++ {
		traces[i] = &strings.Builder{}
		s := me.Shard(i)
		eng := s.Engine()
		i := i
		eng.Every(interval, interval, "tick", func(at Time) {
			draw := eng.RNG("toy").IntN(1000)
			fmt.Fprintf(traces[i], "t=%v local=%d\n", at, draw)
			if sends && draw%3 == 0 {
				dst := (i + 1) % me.Shards()
				v := draw
				from := i
				s.Send(dst, me.lookahead+Time(draw)*Millisecond, "toy-cross", func() {
					fmt.Fprintf(traces[dst], "t=%v cross from=%d v=%d\n", me.Shard(dst).Engine().Now(), from, v)
				})
			}
		})
	}
	return traces
}

func renderTraces(traces []*strings.Builder) string {
	var b strings.Builder
	for i, t := range traces {
		fmt.Fprintf(&b, "== shard %d\n%s", i, t.String())
	}
	return b.String()
}

// TestSingleShardMatchesPlainEngine pins the degenerate case the scenario
// differential tests build on: a one-shard MultiEngine drives the identical
// event order, clock, and RNG draws as a plain Engine with the same seed.
func TestSingleShardMatchesPlainEngine(t *testing.T) {
	run := func(drive func(eng *Engine, until Time)) string {
		eng := NewEngine(42)
		var b strings.Builder
		eng.Every(7*Minute, 7*Minute, "tick", func(at Time) {
			fmt.Fprintf(&b, "t=%v draw=%d\n", at, eng.RNG("toy").IntN(1000))
			if eng.RNG("toy").Bernoulli(0.25) {
				eng.After(90*Second, "burst", func() {
					fmt.Fprintf(&b, "t=%v burst\n", eng.Now())
				})
			}
		})
		drive(eng, 12*Hour)
		fmt.Fprintf(&b, "fired=%d now=%v\n", eng.Fired(), eng.Now())
		return b.String()
	}
	plain := run(func(eng *Engine, until Time) { eng.RunUntil(until) })

	me := NewMultiEngine(42, 1, 5*Minute, 1)
	meEng := me.Shard(0).Engine()
	var b strings.Builder
	meEng.Every(7*Minute, 7*Minute, "tick", func(at Time) {
		fmt.Fprintf(&b, "t=%v draw=%d\n", at, meEng.RNG("toy").IntN(1000))
		if meEng.RNG("toy").Bernoulli(0.25) {
			meEng.After(90*Second, "burst", func() {
				fmt.Fprintf(&b, "t=%v burst\n", meEng.Now())
			})
		}
	})
	me.RunUntil(12 * Hour)
	fmt.Fprintf(&b, "fired=%d now=%v\n", meEng.Fired(), meEng.Now())

	if got := b.String(); got != plain {
		t.Fatalf("one-shard multi-engine diverged from plain engine:\nplain:\n%s\nsharded:\n%s", plain, got)
	}
	if me.Shard(0).Engine().seed != 42 {
		t.Fatalf("ShardSeed(root, 0) = %d, want the root seed", me.Shard(0).Engine().seed)
	}
}

// TestWorkerCountsByteIdentical is the core determinism property: the same
// sharded world produces identical traces at every worker count, including
// cross-shard deliveries.
func TestWorkerCountsByteIdentical(t *testing.T) {
	run := func(workers int) (string, uint64, uint64) {
		me := NewMultiEngine(7, 5, 10*Minute, workers)
		traces := toyShardModel(me, 3*Minute, true)
		me.RunUntil(8 * Hour)
		return renderTraces(traces), me.Epochs(), me.Exchanged()
	}
	base, epochs, exchanged := run(1)
	if exchanged == 0 {
		t.Fatal("toy model exchanged no cross-shard events; the test is vacuous")
	}
	for _, w := range []int{2, 4, 8} {
		got, e, x := run(w)
		if got != base {
			t.Fatalf("workers=%d trace differs from workers=1", w)
		}
		if e != epochs || x != exchanged {
			t.Fatalf("workers=%d epochs/exchanged = %d/%d, want %d/%d", w, e, x, epochs, exchanged)
		}
	}
}

// TestCrossShardMergeOrder pins the (shard, seq) barrier merge: deliveries
// landing on one shard at the same instant fire in sending-shard order,
// then send order, regardless of which shard's epoch work finished first.
func TestCrossShardMergeOrder(t *testing.T) {
	me := NewMultiEngine(1, 3, Minute, 1)
	var got []string
	for _, src := range []int{2, 1} { // wire in reverse shard order
		src := src
		s := me.Shard(src)
		s.Engine().Schedule(Minute, "emit", func() {
			for k := 0; k < 2; k++ {
				k := k
				s.Send(0, Minute, "cross", func() {
					got = append(got, fmt.Sprintf("src=%d k=%d", src, k))
				})
			}
		})
	}
	me.RunUntil(Hour)
	want := []string{"src=1 k=0", "src=1 k=1", "src=2 k=0", "src=2 k=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

// TestSendBelowLookaheadPanics: delays under the lookahead would let a
// delivery land in the destination's past; they must panic loudly.
func TestSendBelowLookaheadPanics(t *testing.T) {
	me := NewMultiEngine(1, 2, Minute, 1)
	s := me.Shard(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	s.Send(1, 30*Second, "bad", func() {})
}

// TestRunUntilAdvancesAllClocks: idle shards still end at the deadline, so
// a subsequent epoch never schedules into any shard's past.
func TestRunUntilAdvancesAllClocks(t *testing.T) {
	me := NewMultiEngine(3, 3, Minute, 1)
	me.Shard(1).Engine().Schedule(Hour, "only-event", func() {})
	me.RunUntil(2 * Hour)
	for i := 0; i < me.Shards(); i++ {
		if now := me.Shard(i).Engine().Now(); now != 2*Hour {
			t.Fatalf("shard %d clock = %v, want %v", i, now, 2*Hour)
		}
	}
	if me.Now() != 2*Hour {
		t.Fatalf("barrier clock = %v, want %v", me.Now(), 2*Hour)
	}
}

// TestBuildTimeSendDelivered: sends posted before the first epoch (build
// wiring) are exchanged before the first horizon computation.
func TestBuildTimeSendDelivered(t *testing.T) {
	me := NewMultiEngine(9, 2, Minute, 2)
	fired := false
	me.Shard(0).Send(1, Minute, "boot", func() { fired = true })
	me.RunUntil(Hour)
	if !fired {
		t.Fatal("build-time cross-shard send never delivered")
	}
}

// TestShardSeedFamilies: distinct shards get distinct seeds and therefore
// independent stream families; shard 0 keeps the root.
func TestShardSeedFamilies(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := ShardSeed(99, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ShardSeed collision between shards %d and %d", prev, i)
		}
		seen[s] = i
	}
	if ShardSeed(99, 0) != 99 {
		t.Fatalf("ShardSeed(99, 0) = %d, want 99", ShardSeed(99, 0))
	}
}

// TestBarrierHook pins the observer contract: the hook fires once per
// epoch on the coordinator's goroutine with monotonically increasing epoch
// numbers and horizons, its trace is identical at every worker count, and
// clearing it stops further callbacks.
func TestBarrierHook(t *testing.T) {
	run := func(workers int) (string, uint64) {
		me := NewMultiEngine(7, 4, 10*Minute, workers)
		toyShardModel(me, 3*Minute, true)
		var trace strings.Builder
		var lastEpoch uint64
		var lastNow Time = -1
		me.SetBarrierHook(func(epoch uint64, now Time) {
			if epoch != lastEpoch+1 {
				t.Errorf("workers=%d: epoch %d after %d, want consecutive", workers, epoch, lastEpoch)
			}
			if now <= lastNow {
				t.Errorf("workers=%d: horizon %v after %v, want increasing", workers, now, lastNow)
			}
			if now != me.Now() {
				t.Errorf("workers=%d: hook now %v != me.Now() %v", workers, now, me.Now())
			}
			lastEpoch, lastNow = epoch, now
			fmt.Fprintf(&trace, "epoch=%d now=%v\n", epoch, now)
		})
		me.RunUntil(4 * Hour)
		if lastEpoch != me.Epochs() {
			t.Errorf("workers=%d: hook fired %d times over %d epochs", workers, lastEpoch, me.Epochs())
		}
		return trace.String(), lastEpoch
	}
	base, epochs := run(1)
	if epochs == 0 {
		t.Fatal("no epochs ran; the test is vacuous")
	}
	for _, w := range []int{2, 4} {
		if got, _ := run(w); got != base {
			t.Fatalf("workers=%d barrier trace differs from workers=1", w)
		}
	}

	// Clearing the hook stops callbacks without disturbing the run.
	me := NewMultiEngine(7, 2, 10*Minute, 1)
	toyShardModel(me, 3*Minute, false)
	fired := 0
	me.SetBarrierHook(func(uint64, Time) { fired++ })
	me.RunUntil(1 * Hour)
	if fired == 0 {
		t.Fatal("hook never fired")
	}
	me.SetBarrierHook(nil)
	before := fired
	me.RunUntil(2 * Hour)
	if fired != before {
		t.Fatalf("hook fired %d more times after being cleared", fired-before)
	}
}
