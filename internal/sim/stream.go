package sim

import (
	"math"
	"math/rand/v2"
)

// Stream is a named pseudo-random number stream. It embeds *rand.Rand, so
// all standard draws (Float64, IntN, Perm, ...) are available, and adds the
// derived draws the simulation models need.
type Stream struct {
	*rand.Rand
	name string
}

// Name returns the name the stream was created under.
func (s *Stream) Name() string { return s.name }

// Bernoulli returns true with probability p. p outside [0,1] is clamped.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exponential returns a draw from an exponential distribution with the
// given mean (not rate). mean must be positive.
func (s *Stream) Exponential(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Weibull returns a draw from a Weibull distribution with the given shape k
// and scale lambda. shape < 1 models infant mortality, shape == 1 is
// exponential, and shape > 1 models wear-out — the standard menu for
// hardware lifetime modelling.
func (s *Stream) Weibull(shape, scale float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// LogNormal returns a draw whose logarithm is normal with parameters mu and
// sigma. Used for human task times, which are right-skewed.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Triangular returns a draw from a triangular distribution on [lo, hi] with
// the given mode. It is the usual "expert estimate" distribution for task
// durations with min/likely/max bounds.
func (s *Stream) Triangular(lo, mode, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	u := s.Float64()
	c := (mode - lo) / (hi - lo)
	if u < c {
		return lo + math.Sqrt(u*(hi-lo)*(mode-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-mode))
}

// PickWeighted returns an index in [0, len(weights)) drawn proportionally to
// the weights. Non-positive weights are treated as zero; if all weights are
// zero it returns 0.
func (s *Stream) PickWeighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
