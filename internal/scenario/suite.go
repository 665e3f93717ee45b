package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Artifact is one rendered experiment output: a table, a figure, or both
// under one EXPERIMENTS.md id.
type Artifact struct {
	ID  string
	Tab *metrics.Table
	Fig *metrics.Figure
}

// Render formats the artifact exactly as cmd/experiments prints it; tests
// compare these strings byte-for-byte between serial and parallel runs.
func (a Artifact) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n########## %s ##########\n", a.ID)
	if a.Tab != nil {
		fmt.Fprintln(&b, a.Tab)
	}
	if a.Fig != nil {
		fmt.Fprintln(&b, a.Fig)
	}
	return b.String()
}

// SuiteParams parameterizes the whole experiment suite.
type SuiteParams struct {
	Repair  RepairParams
	Fleet   FleetParams
	T6Reps  int
	T6Seed  uint64
	T8Tasks int
	T8Seed  uint64
	F6Seed  uint64
}

// DefaultSuiteParams returns full-size parameters, or the quick variant.
func DefaultSuiteParams(quick bool) SuiteParams {
	p := SuiteParams{
		Repair:  DefaultRepairParams(),
		Fleet:   DefaultFleetParams(quick),
		T6Reps:  200,
		T6Seed:  5,
		T8Tasks: 400,
		T8Seed:  7,
		F6Seed:  3,
	}
	if quick {
		p.Repair = QuickRepairParams()
		p.T6Reps = 60
		p.T8Tasks = 120
	}
	return p
}

// Experiment is one registry entry: a runnable that regenerates one or
// more artifacts of EXPERIMENTS.md.
type Experiment struct {
	ID    string   // registry id, e.g. "T1"
	Emits []string // artifact ids it produces, e.g. T1 -> T1 and F1
	run   func(r *Runner, p SuiteParams) ([]Artifact, error)
}

// registry lists every experiment in EXPERIMENTS.md order.
var registry = []Experiment{
	{ID: "T1", Emits: []string{"T1", "F1"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, fig, err := T1ServiceWindow(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T1", Tab: tab}, {ID: "F1", Fig: fig}}, nil
	}},
	{ID: "T2", Emits: []string{"T2"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T2Escalation(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T2", Tab: tab}}, nil
	}},
	{ID: "F2", Emits: []string{"F2"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		fig, tab, err := F2Availability(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F2", Tab: tab, Fig: fig}}, nil
	}},
	{ID: "F3", Emits: []string{"F3"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, fig, err := F3Cascades(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F3", Tab: tab, Fig: fig}}, nil
	}},
	{ID: "T3", Emits: []string{"T3"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T3Proactive(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T3", Tab: tab}}, nil
	}},
	{ID: "T4", Emits: []string{"T4"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T4Predictor(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T4", Tab: tab}}, nil
	}},
	{ID: "T5", Emits: []string{"T5"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T5RightProvisioning(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T5", Tab: tab}}, nil
	}},
	{ID: "F4", Emits: []string{"F4"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		fig, tab, err := F4Maintainability(r)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F4", Tab: tab, Fig: fig}}, nil
	}},
	{ID: "F5", Emits: []string{"F5"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		fig, tab, err := F5FleetSizing(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F5", Tab: tab, Fig: fig}}, nil
	}},
	{ID: "T6", Emits: []string{"T6"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T6RobotTimings(r, p.T6Reps, p.T6Seed)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T6", Tab: tab}}, nil
	}},
	{ID: "F6", Emits: []string{"F6"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		fig, err := F6FlapLatency(r, p.F6Seed)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F6", Fig: fig}}, nil
	}},
	{ID: "T7", Emits: []string{"T7"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T7AICluster(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T7", Tab: tab}}, nil
	}},
	{ID: "A1", Emits: []string{"A1"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := A1RepeatWindow(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "A1", Tab: tab}}, nil
	}},
	{ID: "A2", Emits: []string{"A2"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := A2MobilityScope(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "A2", Tab: tab}}, nil
	}},
	{ID: "T8", Emits: []string{"T8"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := T8Diversity(r, p.T8Tasks, p.T8Seed)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "T8", Tab: tab}}, nil
	}},
	{ID: "R7", Emits: []string{"R7"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := R7ActuatorChaos(r, p.Repair)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "R7", Tab: tab}}, nil
	}},
	{ID: "F8", Emits: []string{"F8"}, run: func(r *Runner, p SuiteParams) ([]Artifact, error) {
		tab, err := F8FleetScale(r, p.Fleet)
		if err != nil {
			return nil, err
		}
		return []Artifact{{ID: "F8", Tab: tab}}, nil
	}},
}

// ExperimentIDs returns every selectable artifact id in suite order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.Emits...)
	}
	return ids
}

// Select resolves requested artifact ids (case-insensitive) to registry
// entries in suite order. An empty request selects everything; any unknown
// id is an error that lists the valid ids.
func Select(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return registry, nil
	}
	valid := map[string]bool{}
	for _, id := range ExperimentIDs() {
		valid[id] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range ids {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !valid[id] {
			unknown = append(unknown, id)
			continue
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id(s) %s; valid ids: %s",
			strings.Join(unknown, ","), strings.Join(ExperimentIDs(), ","))
	}
	var out []Experiment
	for _, e := range registry {
		for _, id := range e.Emits {
			if want[id] {
				out = append(out, e)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nothing selected; valid ids: %s", strings.Join(ExperimentIDs(), ","))
	}
	return out, nil
}

// ExperimentBench is one experiment's perf record in the BENCH artifact.
// The allocation columns are process-wide runtime.MemStats deltas taken
// around the experiment: exact on a serial run; with workers > 1 the
// experiments overlap in time, so concurrent allocation is attributed to
// whichever experiments were in flight (the suite-level total is measured
// independently and stays correct either way).
type ExperimentBench struct {
	ID           string  `json:"id"`
	Cells        int     `json:"cells"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	AllocObjects uint64  `json:"alloc_objects"`
	AllocMBytes  float64 `json:"alloc_mbytes"`
	// SlowestCells attributes the experiment's wall time to its heaviest
	// cells (top 3), which is what makes a slow sweep point findable.
	SlowestCells []CellTiming `json:"slowest_cells,omitempty"`
}

// Bench is the machine-readable perf artifact (BENCH_experiments.json)
// the harness emits to seed the repo's performance trajectory.
type Bench struct {
	Suite   string `json:"suite"` // "quick" or "full"
	Workers int    `json:"workers"`
	// HostCores is runtime.NumCPU() on the machine that produced the
	// artifact; GoMaxProcs is the scheduler's actual parallelism bound at
	// run time (they differ under cgroup CPU limits or GOMAXPROCS).
	HostCores        int               `json:"host_cores"`
	GoMaxProcs       int               `json:"gomaxprocs"`
	TotalCells       int               `json:"total_cells"`
	TotalWallSeconds float64           `json:"total_wall_seconds"`
	CellsPerSec      float64           `json:"cells_per_sec"`
	TotalAllocMBytes float64           `json:"total_alloc_mbytes"`
	Experiments      []ExperimentBench `json:"experiments"`
}

// UpsertBench records e in the bench artifact at path, replacing the entry
// with e's ID or appending one. The artifact is created when absent; in CI
// the experiments harness writes it first, and cmd/benchdiff then gates
// the entry against the committed baseline like any other experiment.
func UpsertBench(path string, e ExperimentBench) error {
	var bench Bench
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &bench); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	i := 0
	for i < len(bench.Experiments) && bench.Experiments[i].ID != e.ID {
		i++
	}
	if i == len(bench.Experiments) {
		bench.Experiments = append(bench.Experiments, e)
	} else {
		bench.Experiments[i] = e
	}
	out, err := json.MarshalIndent(&bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// RunSuite runs the selected experiments over the runner's pool and
// returns their artifacts in suite order plus the perf record. With more
// than one worker the experiments themselves also overlap (each on its own
// Split of the pool); artifact order, and therefore output, is unaffected.
func RunSuite(r *Runner, exps []Experiment, p SuiteParams) ([]Artifact, *Bench, error) {
	if r == nil {
		r = Serial()
	}
	type slot struct {
		arts  []Artifact
		bench ExperimentBench
		err   error
	}
	slots := make([]slot, len(exps))
	var suiteM0 runtime.MemStats
	runtime.ReadMemStats(&suiteM0)
	//lint:allow wallclock harness wall-timing for the bench artifact; never feeds simulation state
	start := time.Now()
	runOne := func(i int) {
		sub := r.Split()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		//lint:allow wallclock harness wall-timing for the bench artifact; never feeds simulation state
		t0 := time.Now()
		arts, err := exps[i].run(sub, p)
		wall := time.Since(t0).Seconds() //lint:allow wallclock harness wall-timing for the bench artifact
		runtime.ReadMemStats(&m1)
		eb := ExperimentBench{ID: exps[i].ID, Cells: sub.CellsRun(), Workers: sub.Workers(),
			WallSeconds:  wall,
			AllocObjects: m1.Mallocs - m0.Mallocs,
			AllocMBytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			SlowestCells: sub.SlowestCells(3)}
		if wall > 0 {
			eb.CellsPerSec = float64(eb.Cells) / wall
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		slots[i] = slot{arts: arts, bench: eb, err: err}
	}
	if r.Workers() == 1 {
		for i := range exps {
			runOne(i)
		}
	} else {
		done := make(chan struct{})
		for i := range exps {
			go func(i int) {
				defer func() { done <- struct{}{} }()
				runOne(i)
			}(i)
		}
		for range exps {
			<-done
		}
	}
	suite := "full"
	if p.Repair.Quick {
		suite = "quick"
	}
	bench := &Bench{Suite: suite, Workers: r.Workers(), HostCores: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0)}
	var arts []Artifact
	for _, s := range slots {
		if s.err != nil {
			return nil, nil, s.err
		}
		arts = append(arts, s.arts...)
		bench.Experiments = append(bench.Experiments, s.bench)
		bench.TotalCells += s.bench.Cells
	}
	bench.TotalWallSeconds = time.Since(start).Seconds() //lint:allow wallclock harness wall-timing for the bench artifact
	if bench.TotalWallSeconds > 0 {
		bench.CellsPerSec = float64(bench.TotalCells) / bench.TotalWallSeconds
	}
	var suiteM1 runtime.MemStats
	runtime.ReadMemStats(&suiteM1)
	bench.TotalAllocMBytes = float64(suiteM1.TotalAlloc-suiteM0.TotalAlloc) / (1 << 20)
	return arts, bench, nil
}
