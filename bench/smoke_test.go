package main

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsAtToySize runs every workload at toy size (one cell of three
// days, one design, 20 watchers for 20 steps, two regions), untraced and
// traced, in this process. Each run must pass its own checks and emit every
// metric BENCHMARK.json lists for its mode, finite and with its unit.
func TestWorkloadsAtToySize(t *testing.T) {
	def := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, opts{seed: 1, traced: traced, toy: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := r.res
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d violations=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, m.Value)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, name, m.Unit, unit)
				}
			}
		}
	}
}

func TestFinalLineKeys(t *testing.T) {
	res := &result{Workload: "w", Correct: true, Attempted: 3, Metrics: map[string]metric{
		"setup_s": {Value: 0.5, Unit: "s", Note: "dropped from the final line"}}}
	for _, prefix := range []bool{false, true} {
		line, err := finalLine([]*result{res}, prefix)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
			t.Errorf("final line keys %s", got)
		}
		want := `{"setup_s":{"value":0.5,"unit":"s"}}`
		if prefix {
			want = `{"w/setup_s":{"value":0.5,"unit":"s"}}`
		}
		if got := string(top["metrics"]); got != want {
			t.Errorf("metrics %s, want %s", got, want)
		}
	}
}
