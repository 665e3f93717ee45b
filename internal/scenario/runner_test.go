package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRunCellsOrder: results come back in cell order regardless of pool
// size or completion order, and CellsRun counts completions.
func TestRunCellsOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunner(workers)
		var cells []Cell[int]
		for i := 0; i < 20; i++ {
			cells = append(cells, Cell[int]{
				Key: fmt.Sprintf("cell-%d", i),
				Run: func() (int, error) { return i * i, nil },
			})
		}
		got, err := RunCells(r, cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if r.CellsRun() != 20 {
			t.Fatalf("workers=%d: CellsRun = %d, want 20", workers, r.CellsRun())
		}
	}
}

// TestRunnerSplit: splits share the admission pool but count cells
// independently, which is what attributes bench cells per experiment.
func TestRunnerSplit(t *testing.T) {
	r := NewRunner(4)
	a, b := r.Split(), r.Split()
	one := []Cell[int]{{Key: "x", Run: func() (int, error) { return 1, nil }}}
	if _, err := RunCells(a, one); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCells(b, one); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCells(b, one); err != nil {
		t.Fatal(err)
	}
	if a.CellsRun() != 1 || b.CellsRun() != 2 {
		t.Fatalf("split counts (%d, %d), want (1, 2)", a.CellsRun(), b.CellsRun())
	}
	if r.CellsRun() != 0 {
		t.Fatalf("parent counted %d cells, want 0", r.CellsRun())
	}
	if a.Workers() != r.Workers() {
		t.Fatalf("split workers %d, want %d", a.Workers(), r.Workers())
	}
}

// TestRunCellsErrorPropagation: a failing cell fails the whole run, the
// first failure in cell order wins, and its Key appears in the error.
func TestRunCellsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		cells := []Cell[int]{
			{Key: "ok-0", Run: func() (int, error) { return 0, nil }},
			{Key: "bad-1", Run: func() (int, error) { return 0, boom }},
			{Key: "bad-2", Run: func() (int, error) { return 0, errors.New("later") }},
		}
		_, err := RunCells(NewRunner(workers), cells)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v does not wrap the first failure", workers, err)
		}
		if !strings.Contains(err.Error(), "bad-1") {
			t.Fatalf("workers=%d: error %q lacks failing cell key", workers, err)
		}
	}
}

// TestRunSuiteErrorNamesExperiment: a failing experiment fails the suite
// with its id in the error.
func TestRunSuiteErrorNamesExperiment(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "OK", Emits: []string{"OK"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
			return []Artifact{{ID: "OK"}}, nil
		}},
		{ID: "BAD", Emits: []string{"BAD"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
			_, err := RunCells(r, []Cell[int]{{Key: "BAD/seed=1", Run: func() (int, error) { return 0, boom }}})
			return nil, err
		}},
	}
	for _, workers := range []int{1, 4} {
		_, _, err := RunSuite(NewRunner(workers), exps, DefaultSuiteParams(true))
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "BAD") {
			t.Fatalf("workers=%d: error %q lacks experiment id or cause", workers, err)
		}
	}
}

// TestSelect: id resolution is case-insensitive, rejects unknown ids with
// the valid list, and empty input selects the full registry.
func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(registry) {
		t.Fatalf("empty select: %d experiments, err %v", len(all), err)
	}
	got, err := Select([]string{"t1", " f4 "})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "T1" || got[1].ID != "F4" {
		t.Fatalf("select t1,f4 resolved to %v", got)
	}
	// F1 is emitted by the T1 experiment; selecting it must run T1.
	got, err = Select([]string{"F1"})
	if err != nil || len(got) != 1 || got[0].ID != "T1" {
		t.Fatalf("select F1 resolved to %v, err %v", got, err)
	}
	_, err = Select([]string{"T1", "XYZ"})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), "XYZ") || !strings.Contains(err.Error(), "T1,F1") {
		t.Fatalf("unknown-id error %q lacks the id or the valid list", err)
	}
}

// TestParallelMatchesSerial is the determinism regression test of the
// parallel harness: at fixed seeds, a multi-worker run must render tables,
// figures and CSVs byte-identically to the serial path. T1 exercises the
// (level × seed) merge (Welford + histogram accumulation order) and F6 a
// figure-only experiment with per-level cells.
func TestParallelMatchesSerial(t *testing.T) {
	exps, err := Select([]string{"T1", "F6"})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSuiteParams(true)
	p.Repair.Duration = 20 * sim.Day

	render := func(r *Runner) (string, string) {
		arts, _, err := RunSuite(r, exps, p)
		if err != nil {
			t.Fatal(err)
		}
		var out, csv strings.Builder
		for _, a := range arts {
			out.WriteString(a.Render())
			if a.Tab != nil {
				csv.WriteString(a.Tab.CSV())
			}
			if a.Fig != nil {
				csv.WriteString(a.Fig.CSV())
			}
		}
		return out.String(), csv.String()
	}

	serialOut, serialCSV := render(Serial())
	parOut, parCSV := render(NewRunner(4))
	if serialOut != parOut {
		t.Fatalf("parallel render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parOut)
	}
	if serialCSV != parCSV {
		t.Fatal("parallel CSV differs from serial")
	}
	if !strings.Contains(serialOut, "########## T1 ##########") ||
		!strings.Contains(serialOut, "########## F6 ##########") {
		t.Fatalf("render missing expected artifacts:\n%s", serialOut)
	}
}

// TestBenchJSONRoundTrip: the BENCH artifact survives a marshal/unmarshal
// cycle and its totals are consistent with the per-experiment records.
func TestBenchJSONRoundTrip(t *testing.T) {
	exps, err := Select([]string{"T6"})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSuiteParams(true)
	p.T6Reps = 10
	_, bench, err := RunSuite(NewRunner(2), exps, p)
	if err != nil {
		t.Fatal(err)
	}
	if bench.Suite != "quick" || bench.Workers != 2 || bench.HostCores < 1 {
		t.Fatalf("bench header %+v", bench)
	}
	if len(bench.Experiments) != 1 || bench.Experiments[0].ID != "T6" {
		t.Fatalf("bench experiments %+v", bench.Experiments)
	}
	if bench.TotalCells != bench.Experiments[0].Cells || bench.TotalCells == 0 {
		t.Fatalf("bench cells: total %d, experiment %d", bench.TotalCells, bench.Experiments[0].Cells)
	}
	data, err := json.Marshal(bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"suite"`, `"workers"`, `"host_cores"`, `"total_cells"`,
		`"total_wall_seconds"`, `"cells_per_sec"`, `"experiments"`, `"wall_seconds"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("bench JSON lacks %s: %s", key, data)
		}
	}
	var back Bench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*bench, back) {
		t.Fatalf("round trip changed the artifact:\nbefore %+v\nafter  %+v", *bench, back)
	}
}

// TestUpsertBench: UpsertBench creates a missing artifact, replaces the
// entry with the same ID in place, appends a new ID, keeps the rest of the
// artifact, and refuses to overwrite a file it cannot parse.
func TestUpsertBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	read := func() Bench {
		t.Helper()
		var b Bench
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("%v: %s", err, data)
		}
		return b
	}
	upsert := func(e ExperimentBench) {
		t.Helper()
		if err := UpsertBench(path, e); err != nil {
			t.Fatal(err)
		}
	}

	upsert(ExperimentBench{ID: "lint", Workers: 1, WallSeconds: 1})
	if got := read().Experiments; len(got) != 1 || got[0].ID != "lint" || got[0].WallSeconds != 1 {
		t.Fatalf("created artifact holds %+v", got)
	}

	b := read()
	b.Suite = "quick"
	b.Experiments = append([]ExperimentBench{{ID: "T6", Cells: 3}}, b.Experiments...)
	data, _ := json.Marshal(&b)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	upsert(ExperimentBench{ID: "lint", Workers: 1, WallSeconds: 2})
	upsert(ExperimentBench{ID: "cpload", Workers: 1000, WallSeconds: 3})
	b = read()
	var ids []string
	for _, e := range b.Experiments {
		ids = append(ids, fmt.Sprintf("%s:%g", e.ID, e.WallSeconds))
	}
	if got := strings.Join(ids, " "); b.Suite != "quick" || got != "T6:0 lint:2 cpload:3" {
		t.Fatalf("after replace and append: suite %q, experiments %s; want quick, T6:0 lint:2 cpload:3", b.Suite, got)
	}

	if err := os.WriteFile(path, []byte(`{"experiments":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := UpsertBench(path, ExperimentBench{ID: "lint"}); err == nil {
		t.Fatal("UpsertBench accepted a malformed artifact")
	}
	if data, _ := os.ReadFile(path); string(data) != `{"experiments":[` {
		t.Fatalf("malformed artifact overwritten: %s", data)
	}
}
