package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{5 * Second, 1 * Second, 3 * Second, 2 * Second, 4 * Second} {
		at := at
		e.Schedule(at, "ev", func() { got = append(got, at) })
	}
	e.RunUntil(Forever)
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if e.Now() != 5*Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, "same-instant", func() { got = append(got, i) })
	}
	e.RunUntil(Forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(2*Second, "later", func() {})
	e.RunUntil(Forever)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(Second, "past", func() {})
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(Second, "cancel-me", func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	if !ev.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.RunUntil(Forever)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEventCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine(1)
	var got []string
	a := e.Schedule(1*Second, "a", func() { got = append(got, "a") })
	b := e.Schedule(2*Second, "b", func() { got = append(got, "b") })
	c := e.Schedule(3*Second, "c", func() { got = append(got, "c") })
	_ = a
	b.Cancel()
	e.RunUntil(Forever)
	if fmt.Sprint(got) != "[a c]" {
		t.Fatalf("got %v, want [a c]", got)
	}
	_ = c
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(10*Second, "outer", func() {
		e.After(5*Second, "inner", func() { at = e.Now() })
	})
	e.RunUntil(Forever)
	if at != 15*Second {
		t.Fatalf("inner fired at %v, want 15s", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		at := Time(i) * Second
		e.Schedule(at, "t", func() { fired = append(fired, at) })
	}
	e.RunUntil(5 * Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d, want 5", len(fired))
	}
	if e.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	// Deadline with no events still advances the clock.
	e2 := NewEngine(1)
	e2.RunUntil(Hour)
	if e2.Now() != Hour {
		t.Fatalf("empty RunUntil: Now = %v, want 1h", e2.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tk *Ticker
	tk = e.Every(0, Minute, "tick", func(at Time) {
		ticks = append(ticks, at)
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	e.RunUntil(Hour)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if at != Time(i)*Minute {
			t.Fatalf("tick %d at %v, want %v", i, at, Time(i)*Minute)
		}
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.Every(Minute, Minute, "tick", func(Time) { n++ })
	tk.Stop()
	e.RunUntil(Hour)
	if n != 0 {
		t.Fatalf("stopped ticker fired %d times", n)
	}
}

func TestEngineDeterminism(t *testing.T) {
	trace := func(seed uint64) []string {
		e := NewEngine(seed)
		var out []string
		e.SetTracer(func(at Time, name string) {
			out = append(out, fmt.Sprintf("%v %s", at, name))
		})
		rng := e.RNG("load")
		var spawn func()
		spawn = func() {
			if e.Now() > 10*Minute {
				return
			}
			d := Time(rng.Exponential(30) * float64(Second))
			e.After(d, "work", spawn)
			e.After(d/2+Second, "half", func() {})
		}
		e.Schedule(0, "start", spawn)
		e.RunUntil(20 * Minute)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different traces")
	}
	c := trace(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestRNGStreamsIndependentAndStable(t *testing.T) {
	e1 := NewEngine(7)
	a := e1.RNG("alpha")
	_ = a.Float64() // consume from alpha only
	b1 := e1.RNG("beta").Float64()

	e2 := NewEngine(7)
	b2 := e2.RNG("beta").Float64() // no alpha draws at all
	if b1 != b2 {
		t.Fatal("stream beta affected by draws on stream alpha")
	}
	if e1.RNG("alpha") != a {
		t.Fatal("RNG did not cache stream by name")
	}
}

// Property: whatever order events are scheduled in, they fire sorted by
// (time, scheduling order).
func TestEventOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine(1)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, off := range offsets {
			at := Time(off) * Millisecond
			i := i
			e.Schedule(at, "p", func() { fired = append(fired, rec{at, i}) })
		}
		e.RunUntil(Forever)
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire, still in order.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(offsets []uint16, mask []bool) bool {
		e := NewEngine(1)
		firedCount := 0
		events := make([]Handle, len(offsets))
		for i, off := range offsets {
			events[i] = e.Schedule(Time(off)*Millisecond, "p", func() { firedCount++ })
		}
		cancelled := 0
		for i, ev := range events {
			if i < len(mask) && mask[i] {
				if ev.Cancel() {
					cancelled++
				}
			}
		}
		e.RunUntil(Forever)
		return firedCount == len(offsets)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Stale handles to recycled event structs must be inert: Pending false,
// Cancel refused — even when the struct has been reused by a later event.
func TestStaleHandleIsInertAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	h := e.Schedule(Second, "first", func() { fired++ })
	e.RunUntil(Forever)
	h2 := e.Schedule(2*Second, "second", func() { fired++ })
	if h.Pending() {
		t.Fatal("fired event still pending via stale handle")
	}
	if h.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !h2.Pending() {
		t.Fatal("new event not pending")
	}
	e.RunUntil(Forever)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h Handle
	if h.Pending() {
		t.Fatal("zero handle pending")
	}
	if h.Cancel() {
		t.Fatal("zero handle cancelled something")
	}
}

// The event free list makes steady-state scheduling allocation-free once
// the queue and free list have warmed up.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Millisecond, "warm", fn)
	}
	e.RunUntil(Forever)
	allocs := testing.AllocsPerRun(200, func() {
		e.After(Millisecond, "steady", fn)
		e.RunUntil(Forever)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocated %.1f/op in steady state", allocs)
	}
}

// Step alone — the //selfmaint:hotpath event pump — must not allocate when
// draining a pre-built queue: popping, recycling and firing reuse pooled
// event structs.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Millisecond, "warm", fn)
	}
	e.RunUntil(Forever)
	allocs := testing.AllocsPerRun(200, func() {
		e.After(Millisecond, "one", fn)
		if !e.Step() {
			t.Fatal("no event to step")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %.1f/op in steady state", allocs)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "00:00:00.000"},
		{90 * Minute, "01:30:00.000"},
		{3*Day + 7*Hour + 15*Minute + 2*Second + 250*Millisecond, "3d 07:15:02.250"},
		{-Hour, "-01:00:00.000"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	if d := (5 * Hour).Sub(2 * Hour); d.Hours() != 3 {
		t.Fatalf("Sub: got %v", d)
	}
	if (36 * Hour).Days() != 1.5 {
		t.Fatalf("Days: got %v", (36 * Hour).Days())
	}
	if (90 * Minute).Hours() != 1.5 {
		t.Fatalf("Hours: got %v", (90 * Minute).Hours())
	}
}

func TestNegativeIntervalTickerPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive ticker interval did not panic")
		}
	}()
	e.Every(0, 0, "bad", func(Time) {})
}

func newTestStream(seed uint64) *Stream {
	return &Stream{Rand: rand.New(rand.NewPCG(seed, 0xfeed)), name: "test"}
}

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000)*Millisecond/1000, "bench", func() {})
		if e.Pending() > 10000 {
			e.RunUntil(e.Now() + Millisecond)
		}
	}
	e.RunUntil(Forever)
}
