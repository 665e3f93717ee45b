package routing

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// plainAdd is addRepeated's specification: c rounded additions of s to x,
// one after another.
func plainAdd(x, s float64, c int) float64 {
	for range c {
		x += s
	}
	return x
}

// checkAddRepeated fails t unless addRepeated(x, s, c) has the plain loop's
// bits, or both are NaN.
func checkAddRepeated(t *testing.T, x, s float64, c int) {
	t.Helper()
	got, want := addRepeated(x, s, c), plainAdd(x, s, c)
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("addRepeated(%v [%#x], %v [%#x], %d) = %v [%#x], plain loop %v [%#x]",
			x, math.Float64bits(x), s, math.Float64bits(s), c,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestAddRepeatedCases(t *testing.T) {
	below := func(p float64) float64 { return math.Nextafter(p, 0) }
	cases := []struct {
		name string
		x, s float64
		c    int
	}{
		{"uniform offered total", 0, 1000.0 / 186192, 186192},
		{"short chain", 1, 0.1, 31},
		{"tie, even m", 1, 0x1p-53, 1000}, // s is exactly half an ulp of 1: stalls
		{"tie, odd m", 1 + 0x1p-52, 0x1p-53, 1000},
		{"tie with whole ulps", 1 + 0x1p-52, 3 * 0x1p-53, 5000},
		{"tie, even floor", 1, 5 * 0x1p-53, 5000},
		{"just below a binade", below(2), 0x1p-40, 100000},
		{"just below a binade, large share", below(1024), 0.3, 10000},
		{"zero sum", 0, 0.1, 1000},
		{"subnormal sum", 0x1p-1070, 0x1p-1000, 1000},
		{"subnormal share", 1e-310, 0x1p-1070, 1000},
		{"zero share", 5, 0, 1000},
		{"negative sum", -1000, 0.25, 9000},
		{"negative share", 1000, -0.1, 9000},
		{"+Inf sum", math.Inf(1), 1, 100},
		{"-Inf sum", math.Inf(-1), 1, 100},
		{"+Inf share", 1, math.Inf(1), 100},
		{"NaN sum", math.NaN(), 1, 100},
		{"NaN share", 1, math.NaN(), 100},
		{"stall below half an ulp", 1 << 40, 1e-5, 100000},
		{"share equals the sum", 3, 3, 1000},
		{"share above the sum", 1e-3, 7, 1000},
		{"overflow to +Inf", math.MaxFloat64 / 2, math.MaxFloat64 / 64, 1000},
		{"largest binade", 0x1p1023, 0x1p970, 1 << 16},
		{"low binades", 0x1p-1020, 0x1p-1021 + 0x1p-1070, 1 << 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAddRepeated(t, tc.x, tc.s, tc.c) })
	}
}

// TestAddRepeatedRandom compares the kernel with the plain loop on sums and
// shares drawn across the whole exponent range and near binade edges.
func TestAddRepeatedRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func() float64 {
		switch rng.IntN(4) {
		case 0: // any bits
			return math.Float64frombits(rng.Uint64())
		case 1: // one binade either side of 1
			return rng.Float64() * 4
		case 2: // a power of two, nudged
			p := math.Ldexp(1, rng.IntN(120)-60)
			return math.Float64frombits(math.Float64bits(p) + uint64(rng.IntN(5)) - 2)
		default: // a short fraction
			return float64(rng.IntN(1<<10)) / float64(int(1)<<rng.IntN(20))
		}
	}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for range n {
		x, s := draw(), draw()
		if rng.IntN(2) == 0 {
			s = x * math.Ldexp(1, -rng.IntN(60)) // shares a few binades below the sum
		}
		checkAddRepeated(t, x, s, rng.IntN(3000))
	}
}

// FuzzAddRepeated checks the kernel against the plain loop for any sum, any
// share and up to 65,535 additions.
func FuzzAddRepeated(f *testing.F) {
	f.Add(uint64(0), math.Float64bits(1000.0/186192), uint16(65535))
	f.Add(math.Float64bits(1), math.Float64bits(0x1p-53), uint16(1000))
	f.Add(math.Float64bits(1+0x1p-52), math.Float64bits(3*0x1p-53), uint16(5000))
	f.Add(math.Float64bits(math.Nextafter(2, 0)), math.Float64bits(0x1p-40), uint16(40000))
	f.Add(math.Float64bits(0x1p-1070), math.Float64bits(0x1p-1000), uint16(100))
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(1), uint16(64))
	f.Fuzz(func(t *testing.T, x, s uint64, c uint16) {
		checkAddRepeated(t, math.Float64frombits(x), math.Float64frombits(s), int(c))
	})
}

var sumSink float64

// BenchmarkAddRepeated times the kernel against the plain loop at the chain
// lengths EvaluateInto meets on the k=12 fat-tree at 1,000 Gbps: the
// threshold, a cross-pod run's first hop (48 additions of one share onto a
// host link's load) and a uniform matrix's offered total (186,192 rates
// from zero).
func BenchmarkAddRepeated(b *testing.B) {
	rate := 1000.0 / 186192
	for _, tc := range []struct {
		x, s float64
		c    int
	}{{2.3, rate / 8, repeatMin}, {2.3, rate / 8, 48}, {0, rate, 186192}} {
		n := strconv.Itoa(tc.c)
		b.Run("kernel-"+n, func(b *testing.B) {
			for range b.N {
				sumSink = addRepeated(tc.x, tc.s, tc.c)
			}
		})
		b.Run("plain-"+n, func(b *testing.B) {
			for range b.N {
				sumSink = plainAdd(tc.x, tc.s, tc.c)
			}
		})
	}
}
