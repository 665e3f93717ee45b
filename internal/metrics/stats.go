// Package metrics provides the measurement layer of the framework:
// streaming statistics (Welford accumulators, exact percentiles),
// time-integrated ledgers for availability accounting, and
// plain-text table/figure renderers used by the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a numerically stable streaming mean/variance accumulator.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with <2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stdev returns the sample standard deviation.
func (w *Welford) Stdev() float64 { return math.Sqrt(w.Var()) }

// String renders "mean ± stdev (n=N)".
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", w.Mean(), w.Stdev(), w.n)
}

// Histogram collects samples for exact quantiles. It keeps every sample,
// which suits experiment-scale data (up to millions of points).
type Histogram struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (h *Histogram) Add(x float64) {
	h.vals = append(h.vals, x)
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.vals) }

// Quantile returns the q-quantile (q in [0,1]) by nearest-rank, or 0 with
// no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.vals) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
	return h.vals[nearestRank(q, len(h.vals))]
}

// nearestRank returns the 0-based index of the nearest-rank q-quantile of
// n sorted samples: ceil(q*n)-1, clamped to [0, n-1]. Truncating instead
// (int(q*(n-1))) biases high quantiles low on small samples — p95 of two
// samples would return the minimum. The epsilon absorbs binary-float
// artifacts like 0.95*20 = 19.000000000000004.
func nearestRank(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range h.vals {
		s += v
	}
	return s / float64(len(h.vals))
}

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	if h.sorted {
		return h.vals[len(h.vals)-1]
	}
	m := h.vals[0]
	for _, v := range h.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// CDF returns (x, F(x)) pairs at n evenly spaced quantiles, suitable for
// plotting a CDF figure.
func (h *Histogram) CDF(n int) (xs, fs []float64) {
	if n < 2 {
		n = 2
	}
	xs = make([]float64, n)
	fs = make([]float64, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		xs[i] = h.Quantile(q)
		fs[i] = q
	}
	return xs, fs
}
