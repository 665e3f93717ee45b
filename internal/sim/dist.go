package sim

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution. Sample draws from it
// using the provided stream, so a Dist value is immutable, shareable
// configuration and all randomness flows through named engine streams.
type Dist interface {
	// Sample draws one value.
	Sample(s *Stream) float64
	// Mean returns the distribution's expectation (used for capacity
	// planning and sanity checks, not for sampling).
	Mean() float64
}

// Const is the degenerate distribution that always yields V.
type Const float64

// Sample implements Dist.
func (c Const) Sample(*Stream) float64 { return float64(c) }

// Mean implements Dist.
func (c Const) Mean() float64 { return float64(c) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(s *Stream) float64 { return u.Lo + (u.Hi-u.Lo)*s.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exp is the exponential distribution with the given MeanVal.
type Exp struct{ MeanVal float64 }

// Sample implements Dist.
func (e Exp) Sample(s *Stream) float64 { return s.Exponential(e.MeanVal) }

// Mean implements Dist.
func (e Exp) Mean() float64 { return e.MeanVal }

// LogNormal is the log-normal distribution with log-space parameters Mu and
// Sigma.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(s *Stream) float64 { return s.LogNormal(l.Mu, l.Sigma) }

// Mean implements Dist.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Triangular is the triangular distribution on [Lo, Hi] with the given Mode.
type Triangular struct{ Lo, Mode, Hi float64 }

// Sample implements Dist.
func (t Triangular) Sample(s *Stream) float64 { return s.Triangular(t.Lo, t.Mode, t.Hi) }

// Mean implements Dist.
func (t Triangular) Mean() float64 { return (t.Lo + t.Mode + t.Hi) / 3 }

// Clamped restricts draws of Base to [Lo, Hi] by clamping (not rejection),
// preserving determinism in the number of stream draws per sample.
type Clamped struct {
	Base   Dist
	Lo, Hi float64
}

// Sample implements Dist.
func (c Clamped) Sample(s *Stream) float64 {
	v := c.Base.Sample(s)
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}

// Mean implements Dist. It returns the unclamped mean clamped to [Lo, Hi],
// an approximation documented as such.
func (c Clamped) Mean() float64 {
	m := c.Base.Mean()
	if m < c.Lo {
		return c.Lo
	}
	if m > c.Hi {
		return c.Hi
	}
	return m
}

// SampleDuration draws from d, interpreting the value as seconds, and
// returns it as a virtual-time duration. Negative draws clamp to zero.
func SampleDuration(d Dist, s *Stream) Time {
	v := d.Sample(s)
	if v <= 0 {
		return 0
	}
	return Time(v * float64(Second))
}

// MeanDuration returns d's mean interpreted as seconds of virtual time.
func MeanDuration(d Dist) Time {
	v := d.Mean()
	if v <= 0 {
		return 0
	}
	return Time(v * float64(Second))
}

// String implementations make configuration dumps readable.

func (c Const) String() string      { return fmt.Sprintf("const(%g)", float64(c)) }
func (u Uniform) String() string    { return fmt.Sprintf("uniform(%g,%g)", u.Lo, u.Hi) }
func (e Exp) String() string        { return fmt.Sprintf("exp(mean=%g)", e.MeanVal) }
func (l LogNormal) String() string  { return fmt.Sprintf("lognormal(μ=%g,σ=%g)", l.Mu, l.Sigma) }
func (t Triangular) String() string { return fmt.Sprintf("tri(%g,%g,%g)", t.Lo, t.Mode, t.Hi) }
