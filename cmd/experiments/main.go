// experiments regenerates every table and figure of EXPERIMENTS.md.
//
//	experiments                  # full suite (accelerated year, 3 seeds), all cores
//	experiments -quick           # fast pass (small hall, 90 days, 2 seeds)
//	experiments -run T1,F4       # selected experiments only (unknown ids are an error)
//	experiments -csv DIR         # also write CSV files into DIR
//	experiments -workers 4       # one worker count everywhere: the cell pool
//	                             # AND the F8 shard coordinator sweep ({1, N})
//	experiments -serial          # one worker, no goroutines (bit-identical to -workers N)
//	experiments -bench-json PATH # write the BENCH perf artifact (timings, cells/sec, allocs)
//	experiments -cpuprofile F    # write a CPU profile of the suite run
//	experiments -memprofile F    # write a post-run heap profile (after GC)
//	experiments -record DIR      # also write flight recordings (R7 per cell, F8 per
//	                             # sweep point) into DIR
//	experiments -from-recording DIR # no simulation: regenerate the R7 table from the
//	                             # recordings in DIR and verify every other capture
//
// Every experiment decomposes into independent (experiment × level/policy
// × seed) simulation cells; the harness fans the cells across a worker
// pool and merges results in deterministic cell order, so output is
// byte-identical to a serial run at fixed seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/flightrec"
	"repro/internal/scenario"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "small hall, shorter runs")
		runs      = flag.String("run", "", "comma-separated experiment ids ("+strings.Join(scenario.ExperimentIDs(), ",")+"); empty = all")
		csv       = flag.String("csv", "", "directory to write CSV artifacts into")
		workersN  = flag.Int("workers", 0, "worker count for the cell pool AND the F8 shard coordinator (sweeps {1, N}); 0 = defaults")
		serial    = flag.Bool("serial", false, "run everything on one worker (escape hatch; same output)")
		benchJSON = flag.String("bench-json", "", "write a BENCH_experiments.json perf artifact to this path")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		recordDir = flag.String("record", "", "directory to write flight recordings into (R7 per cell, F8 per sweep point)")
		fromDir   = flag.String("from-recording", "", "regenerate tables from the recordings in this directory; no simulation")
	)
	flag.Parse()

	fail := func(err error) {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if *fromDir != "" {
		if *recordDir != "" {
			fail(fmt.Errorf("-record conflicts with -from-recording: one writes captures, the other consumes them"))
		}
		if err := fromRecordings(*fromDir); err != nil {
			fail(err)
		}
		return
	}

	// Validate worker flags up front, before any simulation runs: a bad
	// worker count discovered mid-suite throws the run away.
	if *workersN < 0 {
		fail(fmt.Errorf("-workers %d: must be >= 0 (0 = defaults)", *workersN))
	}
	if *workersN > 0 && *serial && *workersN != 1 {
		fail(fmt.Errorf("-workers %d conflicts with -serial (which pins one worker)", *workersN))
	}

	// Validate profile destinations up front: -memprofile is only opened
	// after the whole suite has run, and discovering a typo in the path
	// then throws the run away.
	for _, p := range []struct{ flag, path string }{
		{"-cpuprofile", *cpuProf},
		{"-memprofile", *memProf},
	} {
		if p.path == "" {
			continue
		}
		dir := filepath.Dir(p.path)
		if info, err := os.Stat(dir); err != nil {
			fail(fmt.Errorf("%s %s: directory %q does not exist", p.flag, p.path, dir))
		} else if !info.IsDir() {
			fail(fmt.Errorf("%s %s: %q is not a directory", p.flag, p.path, dir))
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var ids []string
	for _, id := range strings.Split(*runs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	exps, err := scenario.Select(ids)
	if err != nil {
		fail(err)
	}

	workers := *workersN
	if *serial {
		workers = 1
	}
	p := scenario.DefaultSuiteParams(*quick)
	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			fail(err)
		}
		p.Repair.RecordDir = *recordDir
		p.Fleet.RecordDir = *recordDir
	}
	if *workersN > 0 {
		// One knob everywhere: the F8 shard-coordinator sweep becomes
		// {1, N} — the serial baseline stays so the fingerprint equality
		// the experiment enforces remains a real differential check.
		p.Fleet.Workers = []int{1, *workersN}
	}
	r := scenario.NewRunner(workers)
	arts, bench, err := scenario.RunSuite(r, exps, p)
	if err != nil {
		fail(err)
	}

	for _, a := range arts {
		fmt.Print(a.Render())
		if *csv != "" {
			if err := writeCSV(*csv, a); err != nil {
				fail(fmt.Errorf("%s: %w", a.ID, err))
			}
		}
	}
	if *benchJSON != "" {
		if err := writeBench(*benchJSON, bench); err != nil {
			fail(err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		runtime.GC() // report live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

// fromRecordings regenerates what can be regenerated from a capture
// directory without simulating: the R7 table is rebuilt from its per-cell
// recordings (byte-identical to the live render), and every other recording
// is replayed and verified against its trailer fingerprint.
func fromRecordings(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var r7Files, others []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".fr") {
			continue
		}
		if strings.HasPrefix(name, "R7-") {
			r7Files = append(r7Files, name)
		} else {
			others = append(others, name)
		}
	}
	sort.Strings(others)
	if len(r7Files) == 0 && len(others) == 0 {
		return fmt.Errorf("no .fr recordings in %s (run `experiments -record %s` first)", dir, dir)
	}
	if len(r7Files) > 0 {
		tab, err := scenario.R7FromRecordings(dir)
		if err != nil {
			return err
		}
		fmt.Print(scenario.Artifact{ID: "R7", Tab: tab}.Render())
	}
	for _, name := range others {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		res, err := flightrec.Replay(f)
		f.Close()
		if err == nil {
			err = res.Verify()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%s: %d frames, fingerprint %016x, replay verified\n", name, res.Frames, res.Trailer.Fingerprint)
	}
	return nil
}

func writeCSV(dir string, a scenario.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if a.Tab != nil {
		if err := os.WriteFile(filepath.Join(dir, a.ID+"_table.csv"), []byte(a.Tab.CSV()), 0o644); err != nil {
			return err
		}
	}
	if a.Fig != nil {
		if err := os.WriteFile(filepath.Join(dir, a.ID+"_figure.csv"), []byte(a.Fig.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writeBench(path string, b *scenario.Bench) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
