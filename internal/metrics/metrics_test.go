package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.n != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 || w.Mean() != 5 {
		t.Fatalf("mean = %v n = %d", w.Mean(), w.n)
	}
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v", w.Var())
	}
	if w.String() == "" {
		t.Error("string")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		variance := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(w.Var()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not neutral")
	}
	for i := 100; i >= 1; i-- {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Fatal("N")
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 1 {
		t.Fatalf("median = %v", q)
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v", h.Max())
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	xs, fs := h.CDF(11)
	if len(xs) != 11 || fs[0] != 0 || fs[10] != 1 {
		t.Fatalf("cdf: %v %v", xs, fs)
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("cdf x not monotone")
	}
	// Max on an unsorted histogram branch.
	var h2 Histogram
	h2.Add(3)
	h2.Add(9)
	h2.Add(1)
	if h2.Max() != 9 {
		t.Fatal("unsorted max")
	}
}

// TestNearestRankSmallSamples pins the nearest-rank definition
// (ceil(q*n)-1, clamped) on the small sample sizes where a truncating
// index (int(q*(n-1))) visibly biases high quantiles low: p95 of two
// samples must be the maximum, not the minimum.
func TestNearestRankSmallSamples(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		// n=1: every quantile is the single sample.
		{[]float64{7}, 0, 7},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.95, 7},
		{[]float64{7}, 1, 7},
		// n=2: median is the lower sample (rank ceil(1)=1); p95 and max
		// are the upper one.
		{[]float64{10, 20}, 0, 10},
		{[]float64{10, 20}, 0.5, 10},
		{[]float64{10, 20}, 0.95, 20},
		{[]float64{10, 20}, 1, 20},
		// n=3: median is the middle sample.
		{[]float64{1, 5, 9}, 0, 1},
		{[]float64{1, 5, 9}, 0.5, 5},
		{[]float64{1, 5, 9}, 0.95, 9},
		{[]float64{1, 5, 9}, 1, 9},
		// Exact rank boundary with a binary-float product:
		// 0.95*20 = 19.000000000000004 must still pick rank 19 (the
		// 19th of 20 sorted samples), not clamp to the maximum.
		{seq(20), 0.95, 19},
		{seq(20), 0.5, 10},
	}
	for _, c := range cases {
		var h Histogram
		for _, v := range c.vals {
			h.Add(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("n=%d q=%v: got %v, want %v", len(c.vals), c.q, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestStepIntegrator(t *testing.T) {
	var s StepIntegrator
	if s.Average(sim.Hour) != 0 {
		t.Fatal("unstarted average")
	}
	s.Observe(0, 1.0)
	s.Observe(6*sim.Hour, 0.5)
	// 6h at 1.0 + 6h at 0.5 = 0.75 average over 12h.
	if got := s.Average(12 * sim.Hour); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("average = %v", got)
	}
	// At the first instant, returns current value.
	var s2 StepIntegrator
	s2.Observe(sim.Hour, 0.9)
	if s2.Average(sim.Hour) != 0.9 {
		t.Fatal("zero-span average")
	}
}

func TestHealthLedger(t *testing.T) {
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1, Uplinks: 1, FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	hl := NewHealthLedger(eng, n)
	l := n.SwitchLinks()[0]

	eng.Schedule(2*sim.Hour, "down", func() {
		hl.LinkStateChanged(l, faults.Healthy, faults.Down, eng.Now())
	})
	eng.Schedule(5*sim.Hour, "up", func() {
		hl.LinkStateChanged(l, faults.Down, faults.Flapping, eng.Now())
	})
	eng.Schedule(6*sim.Hour, "healthy", func() {
		hl.LinkStateChanged(l, faults.Flapping, faults.Healthy, eng.Now())
	})
	eng.RunUntil(10 * sim.Hour)

	h, f, d := hl.Durations(l.ID)
	if h != 6*sim.Hour || f != sim.Hour || d != 3*sim.Hour {
		t.Fatalf("durations: h=%v f=%v d=%v", h, f, d)
	}
	if hl.DownLinkHours() != 3 {
		t.Fatalf("down link-hours = %v", hl.DownLinkHours())
	}
	if hl.DegradedLinkHours() != 1 {
		t.Fatalf("degraded link-hours = %v", hl.DegradedLinkHours())
	}
	av := hl.FleetAvailability()
	links := float64(len(n.Links))
	want := (links*10 - 4) / (links * 10)
	if math.Abs(av-want) > 1e-9 {
		t.Fatalf("fleet availability = %v, want %v", av, want)
	}
	// Untouched link is fully healthy.
	h2, f2, d2 := hl.Durations(n.Links[0].ID) // host link, never transitioned
	if h2 != 10*sim.Hour || f2 != 0 || d2 != 0 {
		t.Fatalf("untouched link: %v %v %v", h2, f2, d2)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T1", Cols: []string{"policy", "p99 (h)", "note"}}
	tb.AddRow("human", 72.25, "baseline")
	tb.AddRow("robot,L3", 0.25, `says "fast"`)
	tb.Notes = append(tb.Notes, "3 seeds")
	out := tb.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "human") {
		t.Fatalf("table output:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"robot,L3"`) {
		t.Fatalf("csv quoting:\n%s", csv)
	}
	if !strings.Contains(csv, `"says ""fast"""`) {
		t.Fatalf("csv escaping:\n%s", csv)
	}
}

func TestFigureRendering(t *testing.T) {
	var f Figure
	f.Title = "F1"
	f.XLabel = "hours"
	f.YLabel = "CDF"
	f.Add("human", []float64{1, 10, 100}, []float64{0.1, 0.5, 1})
	f.Add("robot", []float64{0.1, 0.5, 1}, []float64{0.3, 0.9, 1})
	out := f.String()
	if !strings.Contains(out, "F1") || !strings.Contains(out, "legend") {
		t.Fatalf("figure output:\n%s", out)
	}
	csv := f.CSV()
	if !strings.Contains(csv, "human,1,0.1") {
		t.Fatalf("figure csv:\n%s", csv)
	}
	// Degenerate figures render without a sketch but don't crash.
	var g Figure
	g.Title = "empty"
	if !strings.Contains(g.String(), "empty") {
		t.Fatal("empty figure")
	}
	var one Figure
	one.Add("pt", []float64{1}, []float64{1})
	_ = one.String()
	var flat Figure
	flat.Add("flat", []float64{1, 2}, []float64{3, 3})
	if !strings.Contains(flat.String(), "flat") {
		t.Fatal("flat figure")
	}
}
