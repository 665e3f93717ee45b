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

// Weibull is the Weibull distribution with Shape k and Scale lambda.
type Weibull struct{ Shape, Scale float64 }

// Sample implements Dist.
func (w Weibull) Sample(s *Stream) float64 { return s.Weibull(w.Shape, w.Scale) }

// Mean implements Dist. It uses the Gamma-function identity
// E[X] = scale * Gamma(1 + 1/shape).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

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

// Pareto is the Pareto distribution with minimum Xm and tail index Alpha.
type Pareto struct{ Xm, Alpha float64 }

// Sample implements Dist.
func (p Pareto) Sample(s *Stream) float64 { return s.Pareto(p.Xm, p.Alpha) }

// Mean implements Dist. For Alpha <= 1 the mean is infinite; it returns +Inf.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Empirical draws uniformly (or weighted, if Weights is non-nil) from a
// fixed set of values — the shape used when calibrating against published
// trace statistics.
type Empirical struct {
	Values  []float64
	Weights []float64 // optional, same length as Values
}

// Sample implements Dist.
func (e Empirical) Sample(s *Stream) float64 {
	if len(e.Values) == 0 {
		return 0
	}
	if len(e.Weights) == len(e.Values) {
		return e.Values[s.PickWeighted(e.Weights)]
	}
	return e.Values[s.IntN(len(e.Values))]
}

// Mean implements Dist.
func (e Empirical) Mean() float64 {
	if len(e.Values) == 0 {
		return 0
	}
	if len(e.Weights) == len(e.Values) {
		var sum, wsum float64
		for i, v := range e.Values {
			if e.Weights[i] > 0 {
				sum += v * e.Weights[i]
				wsum += e.Weights[i]
			}
		}
		if wsum == 0 {
			return 0
		}
		return sum / wsum
	}
	var sum float64
	for _, v := range e.Values {
		sum += v
	}
	return sum / float64(len(e.Values))
}

// Shifted adds a constant Offset to every draw of Base, clamping at Min.
// It models fixed setup costs on top of a random service time.
type Shifted struct {
	Base   Dist
	Offset float64
	Min    float64
}

// Sample implements Dist.
func (sh Shifted) Sample(s *Stream) float64 {
	v := sh.Base.Sample(s) + sh.Offset
	if v < sh.Min {
		return sh.Min
	}
	return v
}

// Mean implements Dist. The clamp at Min is ignored, which is acceptable for
// the configurations used here (Min is far below the mean).
func (sh Shifted) Mean() float64 { return sh.Base.Mean() + sh.Offset }

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
func (w Weibull) String() string    { return fmt.Sprintf("weibull(k=%g,λ=%g)", w.Shape, w.Scale) }
func (l LogNormal) String() string  { return fmt.Sprintf("lognormal(μ=%g,σ=%g)", l.Mu, l.Sigma) }
func (t Triangular) String() string { return fmt.Sprintf("tri(%g,%g,%g)", t.Lo, t.Mode, t.Hi) }
func (p Pareto) String() string     { return fmt.Sprintf("pareto(xm=%g,α=%g)", p.Xm, p.Alpha) }
