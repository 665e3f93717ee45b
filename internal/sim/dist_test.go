package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// meanOf estimates the sample mean of n draws.
func meanOf(d Dist, s *Stream, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(s)
	}
	return sum / float64(n)
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g ± %g", name, got, want, tol)
	}
}

func TestDistMeansMatchSamples(t *testing.T) {
	s := newTestStream(11)
	const n = 200000
	cases := []struct {
		name string
		d    Dist
		tol  float64
	}{
		{"const", Const(4.5), 1e-12},
		{"uniform", Uniform{2, 8}, 0.05},
		{"exp", Exp{MeanVal: 3}, 0.05},
		{"lognormal", LogNormal{Mu: 1, Sigma: 0.5}, 0.1},
		{"triangular", Triangular{0, 3, 9}, 0.05},
	}
	for _, c := range cases {
		within(t, c.name, meanOf(c.d, s, n), c.d.Mean(), c.tol)
	}
	// Stream.Weibull draws fault onsets: its sample mean must match
	// scale·Γ(1+1/shape) in both the wear-out and the infant-mortality
	// regime.
	for _, c := range []struct {
		name              string
		shape, scale, tol float64
	}{
		{"weibull-wearout", 2, 10, 0.1},
		{"weibull-infant", 0.7, 5, 0.2},
	} {
		var sum float64
		for range n {
			sum += s.Weibull(c.shape, c.scale)
		}
		within(t, c.name, sum/n, c.scale*math.Gamma(1+1/c.shape), c.tol)
	}
}

func TestClamped(t *testing.T) {
	s := newTestStream(4)
	c := Clamped{Base: Exp{MeanVal: 100}, Lo: 1, Hi: 5}
	for i := 0; i < 1000; i++ {
		v := c.Sample(s)
		if v < 1 || v > 5 {
			t.Fatalf("clamped sample %g outside [1,5]", v)
		}
	}
	if c.Mean() != 5 {
		t.Fatalf("clamped mean = %g, want 5 (mean above Hi clamps)", c.Mean())
	}
	c2 := Clamped{Base: Const(0.1), Lo: 1, Hi: 5}
	if c2.Mean() != 1 {
		t.Fatalf("clamped mean = %g, want 1 (mean below Lo clamps)", c2.Mean())
	}
}

func TestSampleDuration(t *testing.T) {
	s := newTestStream(6)
	if d := SampleDuration(Const(90), s); d != 90*Second {
		t.Fatalf("SampleDuration(90s) = %v", d)
	}
	if d := SampleDuration(Const(-1), s); d != 0 {
		t.Fatalf("negative duration not clamped: %v", d)
	}
	if d := MeanDuration(Exp{MeanVal: 60}); d != Minute {
		t.Fatalf("MeanDuration = %v, want 1m", d)
	}
	if d := MeanDuration(Const(-2)); d != 0 {
		t.Fatalf("negative MeanDuration not clamped: %v", d)
	}
}

// Property: Weibull samples are always non-negative and finite for valid
// parameters.
func TestWeibullPositiveProperty(t *testing.T) {
	s := newTestStream(7)
	f := func(shape10, scale10 uint8) bool {
		shape := 0.3 + float64(shape10%40)/10 // 0.3 .. 4.2
		scale := 0.1 + float64(scale10)/10
		v := s.Weibull(shape, scale)
		return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Triangular samples stay in [lo, hi] and the mode ordering holds.
func TestTriangularBoundsProperty(t *testing.T) {
	s := newTestStream(8)
	f := func(a, b, c int16) bool {
		// Realistic task-duration magnitudes; extreme float64 inputs
		// overflow intermediate products and are not meaningful here.
		lo, mode, hi := float64(a), float64(b), float64(c)
		// sort into lo <= mode <= hi
		if lo > mode {
			lo, mode = mode, lo
		}
		if mode > hi {
			mode, hi = hi, mode
		}
		if lo > mode {
			lo, mode = mode, lo
		}
		v := s.Triangular(lo, mode, hi)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulli(t *testing.T) {
	s := newTestStream(9)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-3) || !s.Bernoulli(7) {
		t.Fatal("out-of-range p not clamped")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.25) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) frequency = %g", got)
	}
}

func TestPickWeighted(t *testing.T) {
	s := newTestStream(10)
	counts := [3]int{}
	for i := 0; i < 90000; i++ {
		counts[s.PickWeighted([]float64{1, 2, 0})]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight bucket picked %d times", counts[2])
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("weight ratio = %g, want ~2", ratio)
	}
	if s.PickWeighted(nil) != 0 {
		t.Fatal("empty weights should return 0")
	}
	if s.PickWeighted([]float64{0, 0}) != 0 {
		t.Fatal("all-zero weights should return 0")
	}
	// Negative weights behave as zero.
	for i := 0; i < 1000; i++ {
		if s.PickWeighted([]float64{-5, 1}) != 1 {
			t.Fatal("negative weight was picked")
		}
	}
}

func TestDistStrings(t *testing.T) {
	for _, c := range []struct {
		d    interface{ String() string }
		want string
	}{
		{Const(2), "const(2)"},
		{Uniform{1, 2}, "uniform(1,2)"},
		{Exp{MeanVal: 3}, "exp(mean=3)"},
		{Triangular{1, 2, 3}, "tri(1,2,3)"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
