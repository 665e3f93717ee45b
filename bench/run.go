package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is a metric's name and unit exactly as BENCHMARK.json lists
// them; TestBenchmarkJSONMatchesMetrics keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees, reported by an
// untraced run. Every workload reports every one; what a "unit" of work is
// depends on the workload (workload.unit).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. A name ending in _pNN is the NNth percentile of the
// samples recorded under the rest of the name.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.host_us_per_event", "us"},
		{"sim.pending_max", "count"},
		{"sim.multi.epochs", "count"},
		{"sim.multi.exchanged", "count"},
		{"sim.multi.epoch_us_p50", "us"},
		{"sim.multi.epoch_us_p99", "us"},
		{"sim.multi.tail_ms", "ms"},
		{"sim.multi.speedup", "ratio"},
		{"core.self_ms", "ms"},
		{"core.dispatch.events", "count"},
		{"core.dispatch.self_us_p50", "us"},
		{"core.dispatch.self_us_p99", "us"},
		{"faults.self_ms", "ms"},
		{"robot.self_ms", "ms"},
		{"workforce.self_ms", "ms"},
		{"inventory.self_ms", "ms"},
		{"exec.self_ms", "ms"},
		{"flightrec.snapshot_self_ms", "ms"},
		{"fleet.self_ms", "ms"},
		{"other.self_ms", "ms"},
		{"bus.published", "count"},
		{"bus.deliveries", "count"},
		{"routing.evaluate.calls", "count"},
		{"routing.evaluate_ms_p50", "ms"},
		{"routing.evaluate_ms_p99", "ms"},
		{"routing.epochs", "count"},
		{"ticket.opened", "count"},
		{"ticket.resolved", "count"},
		{"core.robot_tasks", "count"},
		{"core.human_tasks", "count"},
		{"core.watchdog_fires", "count"},
		{"fleet.transfers_granted", "count"},
		{"fleet.tickets_opened", "count"},
		{"flightrec.frames", "count"},
		{"flightrec.bytes", "B"},
		{"flightrec.close_ms_p50", "ms"},
		{"flightrec.replay_ms_p50", "ms"},
		{"flightrec.replay_frames_per_s", "1/s"},
		{"topology.build_ms_p50", "ms"},
	}
	for _, d := range designs {
		defs = append(defs, metricDef{"maintindex." + d.name + ".evaluate_ms_p50", "ms"})
	}
	return append(defs,
		metricDef{"maintindex.speedup", "ratio"},
		metricDef{"controlplane.sync_ms_p50", "ms"},
		metricDef{"controlplane.sync_ms_p99", "ms"},
		metricDef{"controlplane.take_pass_ms_p50", "ms"},
		metricDef{"controlplane.fanout_ms_p99", "ms"},
		metricDef{"controlplane.gen_late_ms_p99", "ms"},
		metricDef{"controlplane.sse_lag_ms_p50", "ms"},
		metricDef{"controlplane.sse_lag_ms_p99", "ms"},
		metricDef{"controlplane.frames_published", "count"},
		metricDef{"controlplane.frames_taken", "count"},
		metricDef{"controlplane.dropped", "count"},
		metricDef{"controlplane.coalesced", "count"},
		metricDef{"controlplane.queued_max", "count"},
		metricDef{"controlplane.snapshot_bytes", "B"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"bench.ops", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// opts are one workload run's inputs.
type opts struct {
	seed    uint64
	seconds float64 // measured phase length
	traced  bool
	toy     bool // toy sizes: the smoke test's seconds-long version of each workload
}

// metric is one reported value. Note says how a percentile was taken when
// too few samples allowed the one named.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is what one workload run reports to the parent process.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Unit       string            `json:"unit"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Violations []string          `json:"violations,omitempty"`
	Digests    map[string]string `json:"digests"`
}

// run is the state one workload run accumulates: per-layer counters and
// samples, the trace, digests, and correctness violations.
type run struct {
	o     opts
	res   *result
	trace *trace // the traced run's record; nil when untraced
	// tr is trace while a traced execution runs and nil otherwise: spans,
	// per-layer counters and samples are recorded only then.
	tr *trace

	counts  map[string]float64   // per-layer values, by metric name
	samples map[string][]float64 // per-layer samples, by metric name minus _pNN
	// Host time of the traced and the untraced executions of the traced
	// run, which do the same work: their ratio is the tracing overhead.
	wallTraced, wallUntraced time.Duration
}

func newRun(workload string, o opts) *run {
	r := &run{
		o: o,
		res: &result{Workload: workload, Seed: o.seed, Traced: o.traced, GOMAXPROCS: runtime.GOMAXPROCS(0),
			Correct: true, Metrics: make(map[string]metric), Digests: make(map[string]string)},
		counts:  make(map[string]float64),
		samples: make(map[string][]float64),
	}
	if o.traced {
		r.trace = newTrace()
	}
	return r
}

// violate records a correctness violation that is not tied to one op.
func (r *run) violate(format string, args ...any) {
	r.res.Correct = false
	r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
}

// fail records a failed op.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	r.violate(format, args...)
}

// add, max and sample record per-layer values while a traced execution
// runs, and do nothing otherwise.
func (r *run) add(name string, v float64) {
	if r.tr != nil {
		r.counts[name] += v
	}
}

func (r *run) max(name string, v float64) {
	if r.tr != nil {
		r.counts[name] = math.Max(r.counts[name], v)
	}
}

func (r *run) sample(name string, v float64) {
	if r.tr != nil {
		r.samples[name] = append(r.samples[name], v)
	}
}

// timeCall runs fn and returns its duration; while traced it also records
// the duration in ms under name and a span under parent.
func (r *run) timeCall(parent int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if r.tr != nil {
		r.sample(name, ms(t1.Sub(t0)))
		r.tr.interval(parent, name, "", t0, t1)
	}
	return t1.Sub(t0)
}

// traced runs fn with tracing on, recording nothing towards the overhead
// comparison: for work with no untraced twin, such as a speed-up probe.
func (r *run) traced(fn func()) {
	r.tr = r.trace
	defer func() { r.tr = nil }()
	fn()
}

// execute runs fn once, traced or not, and adds its host time to that
// side of the overhead comparison. A traced execution also records spans,
// per-layer counters, and its Go allocation and GC counts.
func (r *run) execute(traced bool, fn func() error) error {
	if !traced {
		t0 := time.Now()
		err := fn()
		r.wallUntraced += time.Since(t0)
		return err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var err error
	r.traced(func() { err = fn() })
	r.wallTraced += time.Since(t0)
	r.addRuntime(&m0)
	return err
}

// addRuntime adds the Go runtime's allocation and GC counts since m0.
func (r *run) addRuntime(m0 *runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.counts["go.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.counts["go.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	r.counts["go.gc_pause_ms"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// tracedAt says whether execution k of an alternating sequence is traced,
// in the order untraced, traced, traced, untraced, ...: each side runs
// first as often as the other, so warm-up and slow drift of the host
// weigh on both equally.
func tracedAt(k int) bool { return k%4 == 1 || k%4 == 2 }

// pairs is a traced run's measured phase: each round runs twice, untraced
// and traced, in alternating order, until seconds have passed. It returns
// the rounds run.
func (r *run) pairs(seconds float64, round func(k int) error) (int, error) {
	rounds, err := timebox(seconds, func(k int) error {
		for _, traced := range []bool{tracedAt(2 * k), tracedAt(2*k + 1)} {
			if err := r.execute(traced, func() error { return round(k) }); err != nil {
				return err
			}
		}
		return nil
	})
	return len(rounds), err
}

// begin and end open and close a span while traced; otherwise they are
// no-ops.
func (r *run) begin(parent int, name, detail string) int {
	if r.tr == nil {
		return 0
	}
	return r.tr.begin(parent, name, detail)
}

func (r *run) end(id int) {
	if r.tr != nil && id != 0 {
		r.tr.end(id)
	}
}

//go:embed expected.json
var expectedJSON []byte

// expected maps op keys to the digests the default seed produced when
// expected.json was written (see -update-expected). Keys carry every input
// of the op, including its derived seed, so an op whose key is absent (any
// other seed, or other sizes) is simply not compared.
var expected = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	return m
}()

// digestOp records an op's digest of simulated statistics. The op fails if
// the same key produced another digest earlier in this run (the simulation
// is not deterministic) or the committed expectation differs.
func (r *run) digestOp(key, d string) {
	if prev, ok := r.res.Digests[key]; ok && prev != d {
		r.fail("%s: digest %s, earlier in this run %s", key, d, prev)
		return
	}
	r.res.Digests[key] = d
	if want, ok := expected[key]; ok && want != d {
		r.fail("%s: digest %s, expected %s", key, d, want)
	}
}

// digest hashes simulated statistics, floats bit-exactly.
type digest struct{ b []byte }

func (d *digest) add(vals ...any) {
	for _, v := range vals {
		if f, ok := v.(float64); ok {
			d.b = strconv.AppendUint(d.b, math.Float64bits(f), 16)
		} else {
			d.b = fmt.Append(d.b, v)
		}
		d.b = append(d.b, '|')
	}
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.b)
	return hex.EncodeToString(h[:8])
}

// derive gives the i-th seed of a workload seed's family (splitmix64), so
// every cell, design and fleet gets independent inputs from one argument.
func derive(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// measureSetup times build, the workload's set-up, and returns the median.
// Untraced full-size runs repeat it at least five times and until three
// seconds of set-up have been timed (at most 3,000 times). On a shared host
// a millisecond set-up runs fast or about 1.6× slower in stretches of a
// few hundred milliseconds; three seconds span enough of them to keep the
// median from jumping between the two. Before each repeat, untimed, release
// frees what the previous build made and the heap is collected; the last
// build is kept.
func (r *run) measureSetup(release func(), build func() error) (float64, error) {
	minReps, budget, maxReps := 5, 3*time.Second, 3000
	if r.o.traced || r.o.toy {
		minReps, budget, maxReps = 1, 0, 1
	}
	var reps []float64
	var total time.Duration
	for len(reps) < maxReps && (len(reps) < minReps || total < budget) {
		if len(reps) > 0 && release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		reps = append(reps, d.Seconds())
	}
	return median(reps), nil
}

// timebox calls round(0), round(1), ... until seconds have passed (always at
// least once) and returns how long each round took. Rounds are whole units
// of the workload's mix, so the measured mix never depends on where the
// deadline fell.
func timebox(seconds float64, round func(i int) error) ([]time.Duration, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var took []time.Duration
	for {
		t0 := time.Now()
		err := round(len(took))
		took = append(took, time.Since(t0))
		if err != nil || !time.Now().Before(deadline) {
			return took, err
		}
	}
}

// reportEndToEnd fills the untraced run's metrics. Throughput is the
// median over rounds of each round's units per second, so a stretch of
// host interference or one expensive cell moves it less than a run-long
// mean would; unitMs holds one host latency per unit of work.
func (r *run) reportEndToEnd(setupS, unitsPerRound float64, rounds []time.Duration, unitMs []float64) {
	rates := make([]float64, len(rounds))
	for i, d := range rounds {
		rates[i] = unitsPerRound / d.Seconds()
	}
	r.res.Metrics["setup_s"] = metric{Value: setupS, Unit: "s"}
	r.res.Metrics["units_per_s"] = metric{Value: median(rates), Unit: "1/s"}
	v, used := percentile(unitMs, 50)
	r.res.Metrics["unit_ms_p50"] = metric{Value: v, Unit: "ms", Note: percentileNote(50, used, len(unitMs))}
	r.res.Metrics["max_rss_mb"] = metric{Value: maxRSSMB(), Unit: "MB"}
}

func percentileNote(want, used, n int) string {
	switch {
	case used == want:
		return ""
	case used == 0:
		return fmt.Sprintf("n=%d: no percentile has %d samples beyond it; median shown", n, minBeyond)
	default:
		return fmt.Sprintf("p%d of n=%d: too few samples beyond p%d", used, n, want)
	}
}

// maxRSSMB is this process's peak resident set size. Each workload runs in
// its own process, so it is the workload's.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reportLayers fills every per-layer metric from the counters, samples and
// trace the traced executions recorded; ops is how many ops they ran.
func (r *run) reportLayers(ops int) {
	r.counts["bench.ops"] = float64(ops)
	if r.wallUntraced > 0 {
		r.counts["trace.overhead_frac"] = r.wallTraced.Seconds()/r.wallUntraced.Seconds() - 1
	}

	notes := map[string]string{}
	selfNs, events := r.trace.layerSelf()
	var simNs int64
	for _, ns := range selfNs {
		simNs += ns
	}
	for _, layer := range []string{"core", "faults", "robot", "workforce", "inventory", "exec", "fleet", "other"} {
		r.counts[layer+".self_ms"] = float64(selfNs[layer]) / 1e6
	}
	r.counts["flightrec.snapshot_self_ms"] = float64(selfNs["flightrec"]) / 1e6
	r.counts["sim.events"] = float64(events)
	if events > 0 {
		r.counts["sim.host_us_per_event"] = float64(simNs) / 1e3 / float64(events)
	}
	if other := selfNs["other"]; simNs > 0 && float64(other) > 0.01*float64(simNs) {
		r.violate("other.self_ms is %.1f%% of traced sim time: an event name has no layer", 100*float64(other)/float64(simNs))
	}
	_, tailNs := r.trace.eventHist(tailEvent)
	r.counts["sim.multi.tail_ms"] = float64(tailNs) / 1e6
	dispatch, _ := r.trace.eventHist("dispatch")
	r.counts["core.dispatch.events"] = float64(dispatch.n)
	for _, p := range []int{50, 99} {
		name := fmt.Sprintf("core.dispatch.self_us_p%d", p)
		ns, used := dispatch.percentile(p)
		r.counts[name] = ns / 1e3
		notes[name] = percentileNote(p, used, int(dispatch.n))
	}

	for _, d := range perLayer() {
		if v, ok := r.counts[d.name]; ok {
			r.res.Metrics[d.name] = metric{Value: v, Unit: d.unit, Note: notes[d.name]}
			continue
		}
		v, note := 0.0, ""
		if base, p, ok := splitPercentile(d.name); ok {
			if xs := r.samples[base]; len(xs) > 0 {
				var used int
				v, used = percentile(xs, p)
				note = percentileNote(p, used, len(xs))
			}
		}
		r.res.Metrics[d.name] = metric{Value: v, Unit: d.unit, Note: note}
	}
}

// splitPercentile splits "x_p99" into ("x", 99).
func splitPercentile(name string) (string, int, bool) {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return "", 0, false
	}
	p, err := strconv.Atoi(name[i+2:])
	if err != nil {
		return "", 0, false
	}
	return name[:i], p, true
}
