package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported. With fewer, the "tail" is a handful of samples and moves with
// every run.
const minBeyond = 10

// ladder is the sequence a requested percentile falls back along when too
// few samples lie beyond it.
var ladder = []int{99, 95, 90, 75, 50}

// rank is the 1-based nearest rank of percentile p over n samples:
// ⌈p·n/100⌉, computed in integers so p=99, n=100 is exactly rank 99.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// admissible reports whether at least minBeyond of n samples lie beyond
// the p-th percentile.
func admissible(p, n int) bool { return n-rank(p, n) >= minBeyond }

// fallback returns the highest percentile of the ladder that is at most p
// and admissible over n samples, or 0 when none is.
func fallback(p, n int) int {
	for _, q := range ladder {
		if q <= p && admissible(q, n) {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. When fewer than
// minBeyond samples lie beyond p it reports the highest admissible
// percentile instead, and used names it; used is 0 when not even the
// median is admissible, and v is then the median as a best effort (0 for no
// samples). xs is sorted in place.
func percentile(xs []float64, p int) (v float64, used int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	used = fallback(p, len(xs))
	q := used
	if q == 0 {
		q = 50
	}
	return xs[rank(q, len(xs))-1], used
}

// quartiles returns the first, second and third quartiles of xs with
// Python's statistics.quantiles(xs, n=4) default ("exclusive") method, so
// spreads printed here match the ones computed from the same values
// elsewhere. xs must hold at least two values; it is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// hist is a log-bucketed histogram of nanosecond durations: 16 buckets per
// power of two, so a bucket spans about 4.4% and a percentile read from it
// is within that of the exact nearest-rank value. It keeps per-event
// aggregates bounded however many events a run fires.
type hist struct {
	n      uint64
	counts []uint64
}

const histPerOctave = 16

func histBucket(ns int64) int {
	if ns < 1 {
		return 0
	}
	return int(math.Floor(histPerOctave*math.Log2(float64(ns)))) + 1
}

// histUpper is the upper edge of bucket b in nanoseconds.
func histUpper(b int) float64 {
	if b == 0 {
		return 1
	}
	return math.Exp2(float64(b) / histPerOctave)
}

func (h *hist) add(ns int64) {
	b := histBucket(ns)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// percentile is percentile() over the histogram: the upper edge of the
// bucket holding the nearest-rank sample, in nanoseconds, with the same
// admissibility fallback.
func (h *hist) percentile(p int) (ns float64, used int) {
	if h.n == 0 {
		return 0, 0
	}
	used = fallback(p, int(h.n))
	q := used
	if q == 0 {
		q = 50
	}
	want := uint64(rank(q, int(h.n)))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			return histUpper(b), used
		}
	}
	return histUpper(len(h.counts) - 1), used
}

// schedule is an open-loop generator's timetable: step k is due at
// start + k·period whatever happened to earlier steps. Latency is measured
// from when a step was due, not from when it was sent, so a stall shows in
// every step queued behind it instead of vanishing from the numbers.
type schedule struct {
	start  time.Time
	period time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.period) }

// late is how far behind its due time step k started.
func (s schedule) late(k int, started time.Time) time.Duration { return started.Sub(s.due(k)) }

// latency is the time from step k's due time to done.
func (s schedule) latency(k int, done time.Time) time.Duration { return done.Sub(s.due(k)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
