// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue with stable ordering, named pseudo-random
// number streams, and the probability distributions used by the rest of the
// selfmaint framework.
//
// All simulated subsystems (failure processes, robots, technicians, the
// maintenance controller) are driven by a single Engine. Determinism is a
// design requirement: running the same scenario with the same seed must
// produce an identical event trace, so experiments are reproducible and
// regressions are diffable.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, measured in nanoseconds since the
// start of the simulation. The zero value is the simulation epoch.
//
// Time is deliberately distinct from time.Time: simulations span years of
// virtual time and have no relationship to the wall clock.
type Time int64

// Common virtual-time unit helpers. A simulated Day is exactly 24 hours;
// simulations do not observe DST or leap seconds.
const (
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)
	Hour        = Time(time.Hour)
	Day         = 24 * Hour
	Year        = 365 * Day
)

// Forever is an instant later than any instant reachable in practice.
// It is used as the deadline for unbounded Run calls.
const Forever = Time(1<<63 - 1)

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Hours returns t as a floating-point number of hours since the epoch.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// Days returns t as a floating-point number of days since the epoch.
func (t Time) Days() float64 { return float64(t) / float64(Day) }

// Duration returns t as a time.Duration offset from the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t as "[Nd ]HH:MM:SS.mmm" of virtual time, e.g.
// "3d 07:15:02.250". The format is fixed-width enough to align in traces.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	d := t / Day
	t -= d * Day
	h := t / Hour
	t -= h * Hour
	m := t / Minute
	t -= m * Minute
	s := t / Second
	ms := (t - s*Second) / Millisecond
	if d > 0 {
		return fmt.Sprintf("%s%dd %02d:%02d:%02d.%03d", neg, d, h, m, s, ms)
	}
	return fmt.Sprintf("%s%02d:%02d:%02d.%03d", neg, h, m, s, ms)
}
