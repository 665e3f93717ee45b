package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	// 1..100: the p-th percentile is exactly p; p99 has one sample beyond
	// it, so it falls back to p90 (ten beyond).
	for _, tc := range []struct {
		p, want, used int
	}{{50, 50, 50}, {90, 90, 90}, {95, 90, 90}, {99, 90, 90}} {
		v, used := percentile(seq(100), tc.p)
		if v != float64(tc.want) || used != tc.used {
			t.Errorf("p%d of 1..100 = %v (as p%d), want %d (as p%d)", tc.p, v, used, tc.want, tc.used)
		}
	}
	// 1..1000 has ten samples beyond p99.
	if v, used := percentile(seq(1000), 99); v != 990 || used != 99 {
		t.Errorf("p99 of 1..1000 = %v (as p%d), want 990 (as p99)", v, used)
	}
}

func TestPercentileTies(t *testing.T) {
	xs := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 1, 9}
	if v, used := percentile(xs, 50); v != 7 || used != 50 {
		t.Errorf("median of tied samples = %v (as p%d), want 7 (as p50)", v, used)
	}
}

func TestPercentileTooFewSamples(t *testing.T) {
	// Fewer than 20 samples: no percentile has ten beyond it. The median is
	// shown and used says none was admissible.
	v, used := percentile([]float64{3, 1, 2, 5, 4}, 99)
	if v != 3 || used != 0 {
		t.Errorf("p99 of 5 samples = %v (as p%d), want median 3 (as p0)", v, used)
	}
	if v, used := percentile(nil, 50); v != 0 || used != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, used)
	}
	if note := percentileNote(99, 0, 5); note == "" {
		t.Error("no note for an inadmissible percentile")
	}
	if note := percentileNote(99, 90, 150); note != "p90 of n=150: too few samples beyond p99" {
		t.Errorf("note = %q", note)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 4, 4, 2, 9}, 2, 4, 5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles = %v %v %v, want %v %v %v", q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestHistPercentileWithinBucket(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(int64(i) * 1000) // 1µs .. 1ms
	}
	for _, p := range []int{50, 99} {
		got, used := h.percentile(p)
		want := float64(p) * 10 * 1000
		if used != p || got < want || got > want*1.05 {
			t.Errorf("hist p%d = %v (as p%d), want within 5%% above %v", p, got, used, want)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if got, _ := merged.percentile(50); got != func() float64 { v, _ := h.percentile(50); return v }() {
		t.Errorf("merging a histogram with itself moved its median to %v", got)
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sch := schedule{start: t0, period: 10 * time.Millisecond}
	// Step 0 stalls for 50ms. Steps 1..4 are sent the moment it finishes
	// and each completes 1ms after being sent: measured from when they were
	// sent they would all read 1ms, hiding the stall.
	sent := t0.Add(50 * time.Millisecond)
	for k := 1; k <= 4; k++ {
		done := sent.Add(time.Millisecond)
		want := 51*time.Millisecond - time.Duration(k)*10*time.Millisecond
		if got := sch.latency(k, done); got != want {
			t.Errorf("step %d latency = %v, want %v (from due)", k, got, want)
		}
		if got := sch.late(k, sent); got != 50*time.Millisecond-time.Duration(k)*10*time.Millisecond {
			t.Errorf("step %d late = %v", k, got)
		}
	}
	// reachLatencies: a step counts as reached at the first observation at
	// or beyond its last frame.
	obs := []reach{{t0.Add(3 * time.Millisecond), 2}, {t0.Add(25 * time.Millisecond), 9}}
	got := reachLatencies(sch, []uint64{2, 5, 9, 12}, obs)
	want := []float64{3, 15, 5}
	if len(got) != len(want) {
		t.Fatalf("reachLatencies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: %vms, want %vms", i, got[i], want[i])
		}
	}
}
