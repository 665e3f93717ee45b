// Command bench is this repository's benchmark of record. Five workloads
// drive the simulator, the topology planner and the streaming control plane
// through the packages' exported API: an untraced run reports end-to-end
// metrics, a traced run attributes host time to the program's layers, and
// every run checks the program's outputs. See README.md.
//
//	bash bench/run.sh [flags]            (from the repository root)
//	go run . [flags]                     (from bench/)
//
// Each workload runs in its own child process, so peak RSS is per workload.
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	unit string // what units_per_s counts
	run  func(*run) error
}

var workloads = []workload{
	{"hall-year", "simulated hall-days", func(r *run) error { return runHall(r, hallYearSpec(r.o.toy)) }},
	{"hall-large", "simulated hall-days", func(r *run) error { return runHall(r, hallLargeSpec(r.o.toy)) }},
	{"topology-design", "design evaluations", runDesigns},
	{"live-watch", "watched steps (one simulated hour fanned out to every watcher)", runLive},
	{"fleet-sharded", "simulated region-days", runFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, o opts) (*run, error) {
	r := newRun(w.name, o)
	r.res.Unit = w.unit
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

func main() {
	var (
		names    = flag.String("workload", "", "comma-separated workloads (default: all)")
		seed     = flag.Uint64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload run")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "with a traced run, write its spans and per-event aggregates to this file (one JSON line per workload)")
		runs     = flag.Int("runs", 1, "repeatability: run each workload N times with seeds seed..seed+N-1, alternating order, and print median, quartiles and spread")
		check    = flag.Bool("check", false, "run every workload untraced and traced; exit 1 on any correctness violation or disagreeing digest")
		update   = flag.String("update-expected", "", "write every op digest the runs produced to this file")
		child    = flag.Bool("child", false, "run one workload in this process (the parent process passes this)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 0 || *runs < 1 {
		fatalf("-seconds must be >= 0 and -runs >= 1")
	}
	var sel []workload
	if *names == "" {
		sel = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(strings.TrimSpace(n))
			if !ok {
				fatalf("unknown workload %q", n)
			}
			sel = append(sel, w)
		}
	}
	o := opts{seed: *seed, seconds: *seconds, traced: *traceOn == 1}

	if *child {
		if len(sel) != 1 {
			fatalf("-child runs exactly one workload")
		}
		if err := runChild(sel[0], o, *traceOut); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, nil, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	var results []*result
	switch {
	case *runs > 1:
		results = repeat(sel, o, *runs, *traceOut)
		printRuns(results, *runs, loadBounds())
	default:
		for _, w := range sel {
			modes := []bool{o.traced}
			if *check {
				modes = []bool{false, true}
			}
			for _, traced := range modes {
				oo := o
				oo.traced = traced
				res, err := spawn(w.name, oo, *traceOut)
				if err != nil {
					fatalf("%v", err)
				}
				printResult(res)
				results = append(results, res)
			}
		}
		printFinal(results, len(sel) > 1)
	}

	digests, agree := mergeDigests(results)
	if *update != "" {
		b, err := json.MarshalIndent(digests, "", "  ")
		if err == nil {
			err = os.WriteFile(*update, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *check {
		ok := true
		for _, res := range results {
			ok = ok && res.Correct && res.Failed == 0
		}
		if !ok || !agree {
			fmt.Fprintln(os.Stderr, "bench: check failed")
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runChild runs one workload and prints its result as one JSON line.
func runChild(w workload, o opts, traceOut string) error {
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	if r.tr != nil && traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		err = r.tr.write(f, w.name)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r.res)
}

// spawn runs one workload in a child process (this binary with -child) and
// returns its result. The child is killed if it outlives a generous bound.
func spawn(name string, o opts, traceOut string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	limit := max(170*time.Second, time.Duration(4*o.seconds*float64(time.Second))+time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", name, o.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", name, err)
	}
	return &res, nil
}

// metricOrder lists every metric name in definition order.
func metricOrder() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer()...) }

// printResult prints one line per metric — workload, metric, value, unit,
// and a note when a percentile had to fall back — after a header line.
func printResult(res *result) {
	fmt.Printf("# %s seed=%d traced=%v gomaxprocs=%d unit=%q correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.GOMAXPROCS, res.Unit, res.Correct, res.Attempted, res.Failed)
	for _, d := range metricOrder() {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", res.Workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.Note != "" {
			line += "  # " + m.Note
		}
		fmt.Println(line)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", res.Workload, v)
	}
}

// final is the last line of standard output.
type final struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printFinal prints the results as the final JSON line.
func printFinal(results []*result, prefix bool) {
	b, err := finalLine(results, prefix)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// finalLine encodes the results as one JSON object. With prefix each
// metric name is prefixed "workload/", for runs of several workloads.
func finalLine(results []*result, prefix bool) ([]byte, error) {
	f := final{Correct: true, Metrics: map[string]finalMetric{}}
	for _, res := range results {
		f.Correct = f.Correct && res.Correct
		f.Attempted += res.Attempted
		f.Failed += res.Failed
		for name, m := range res.Metrics {
			if prefix {
				name = res.Workload + "/" + name
			}
			f.Metrics[name] = finalMetric{m.Value, m.Unit}
		}
	}
	return json.Marshal(f)
}

// mergeDigests collects every op digest of the results; agree is false
// (and the disagreement printed) when two results digest one op
// differently.
func mergeDigests(results []*result) (map[string]string, bool) {
	all := map[string]string{}
	agree := true
	for _, res := range results {
		for k, d := range res.Digests {
			if prev, ok := all[k]; ok && prev != d {
				fmt.Fprintf(os.Stderr, "bench: %s: digest %s in one run, %s in another\n", k, prev, d)
				agree = false
			}
			all[k] = d
		}
	}
	return all, agree
}

// repeat runs every workload n times with seeds seed, seed+1, ..., in
// alternating workload order, and returns the results grouped by workload.
func repeat(sel []workload, o opts, n int, traceOut string) []*result {
	var results []*result
	for i := 0; i < n; i++ {
		order := append([]workload(nil), sel...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		oo := o
		oo.seed = o.seed + uint64(i)
		for _, w := range order {
			res, err := spawn(w.name, oo, traceOut)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "bench: run %d/%d %s seed=%d correct=%v\n", i+1, n, w.name, oo.seed, res.Correct)
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, v)
			}
			results = append(results, res)
		}
	}
	sort.SliceStable(results, func(a, b int) bool { return results[a].Workload < results[b].Workload })
	return results
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json at
// the repository root, run from there or from bench/; without it spreads
// are printed unflagged.
func loadBounds() map[string]float64 {
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err == nil {
		err = json.Unmarshal(b, &def)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: no bounds (%v); spreads are not flagged\n", err)
		return nil
	}
	m := map[string]float64{}
	for _, e := range def.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}

// printRuns prints, per workload and metric, the median, quartiles and
// spread (IQR ÷ median) over the runs, flagging a spread above the
// metric's bound ("OVER") or above a third of it ("wide"), then the medians
// as the final JSON line.
func printRuns(results []*result, n int, bounds map[string]float64) {
	med := final{Correct: true, Metrics: map[string]finalMetric{}}
	for i := 0; i < len(results); {
		j := i
		for j < len(results) && results[j].Workload == results[i].Workload {
			j++
		}
		group := results[i:j]
		name := group[0].Workload
		fmt.Printf("# %s: %d runs, seeds %d..%d\n", name, n, group[0].Seed, group[0].Seed+uint64(n)-1)
		for _, d := range metricOrder() {
			var vals []float64
			for _, res := range group {
				if m, has := res.Metrics[d.name]; has {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			if b, has := bounds[d.name]; has {
				switch {
				case spread > b:
					flag = fmt.Sprintf(" bound %g OVER", b)
				case spread > b/3:
					flag = fmt.Sprintf(" bound %g wide", b)
				default:
					flag = fmt.Sprintf(" bound %g ok", b)
				}
			}
			fmt.Printf("%s %s median %s q1 %s q3 %s spread %.4f %s%s\n", name, d.name,
				fmtVal(q2), fmtVal(q1), fmtVal(q3), spread, d.unit, flag)
			med.Metrics[name+"/"+d.name] = finalMetric{q2, d.unit}
		}
		for _, res := range group {
			med.Correct = med.Correct && res.Correct
			med.Attempted += res.Attempted
			med.Failed += res.Failed
		}
		i = j
	}
	b, err := json.Marshal(med)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
