// Package selfmaint is the public API of the self-maintaining datacenter
// network framework: build a simulated cluster, choose an automation level
// (L0 human-only through L4 fully autonomous, §2.1 of the paper), run
// virtual time, inject faults, and read back the maintenance outcomes —
// service windows, availability, ticket history, robot activity.
//
// Quickstart:
//
//	c, err := selfmaint.NewCluster(
//		selfmaint.WithLevel(selfmaint.L3),
//		selfmaint.WithRobots(),
//		selfmaint.WithTechnicians(2),
//	)
//	...
//	c.Run(30 * selfmaint.Day)
//	fmt.Println(c.Report())
//
// The deeper machinery (topology builders, fault models, the controller)
// lives in internal packages; this package re-exports the identifiers a
// downstream user needs.
package selfmaint

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/maintindex"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/ticket"
	"repro/internal/topology"
)

// Time is virtual time; see the sim package for semantics.
type Time = sim.Time

// Convenient virtual-time units.
const (
	Second = sim.Second
	Minute = sim.Minute
	Hour   = sim.Hour
	Day    = sim.Day
	Year   = sim.Year
)

// Level is the automation level (§2.1).
type Level = core.Level

// Automation levels, L0 (all-human) through L4 (fully autonomous including
// proactive and predictive maintenance).
const (
	L0 = core.L0
	L1 = core.L1
	L2 = core.L2
	L3 = core.L3
	L4 = core.L4
)

// Cause re-exports the hidden fault causes for fault-injection scenarios.
type Cause = faults.Cause

// Injectable fault causes.
const (
	Oxidation     = faults.Oxidation
	FirmwareHang  = faults.FirmwareHang
	Contamination = faults.Contamination
	XcvrDead      = faults.XcvrDead
	CableDamaged  = faults.CableDamaged
	SwitchPort    = faults.SwitchPort
)

// Network re-exports the topology type for advanced construction.
type Network = topology.Network

// Option configures NewCluster.
type Option func(*scenario.Options)

// WithSeed fixes the random seed (default 1); equal seeds reproduce runs
// exactly.
func WithSeed(seed uint64) Option {
	return func(o *scenario.Options) { o.Seed = seed }
}

// WithLevel selects the automation level (default L0).
func WithLevel(l Level) Option {
	return func(o *scenario.Options) { o.Level = l }
}

// WithTechnicians staffs the human crew (default 0 — pair it with robots,
// or repairs will queue forever).
func WithTechnicians(n int) Option {
	return func(o *scenario.Options) { o.Techs = n }
}

// WithRobots deploys one row-scope robotic unit per equipment row.
func WithRobots() Option {
	return func(o *scenario.Options) { o.Robots = true }
}

// WithTopology substitutes a custom network builder. The builders in this
// package (LeafSpine, FatTree, Jellyfish, Xpander, AICluster) or a
// hand-assembled *Network can be used.
func WithTopology(build func() (*Network, error)) Option {
	return func(o *scenario.Options) { o.BuildNet = build }
}

// WithFaultAcceleration multiplies all hardware failure rates, compressing
// years of aging into shorter runs. Comparisons between levels are
// unaffected.
func WithFaultAcceleration(x float64) Option {
	return func(o *scenario.Options) { o.FaultScale = x }
}

// WithHardwareDiversity sets how many distinct transceiver models the
// robots' perception must cover (default: the full 32-model catalog).
// Diversity 1 models the standardized-hardware future the paper argues for.
func WithHardwareDiversity(models int) Option {
	return func(o *scenario.Options) { o.FleetDiversity = models }
}

// Topology builders, re-exported with friendly signatures.

// LeafSpine builds a two-tier Clos pod.
func LeafSpine(leaves, spines, hostsPerLeaf int) func() (*Network, error) {
	return func() (*Network, error) {
		return topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: leaves, Spines: spines, HostsPerLeaf: hostsPerLeaf,
			Uplinks: 1, FabricGbps: 400, HostGbps: 100,
		})
	}
}

// FatTree builds a k-ary fat-tree.
func FatTree(k int) func() (*Network, error) {
	return func() (*Network, error) {
		return topology.NewFatTree(topology.DefaultFatTree(k))
	}
}

// Jellyfish builds a random regular fabric.
func Jellyfish(switches, degree, hostsPerSwitch int, seed uint64) func() (*Network, error) {
	return func() (*Network, error) {
		return topology.NewJellyfish(topology.JellyfishConfig{
			Switches: switches, FabricDegree: degree, HostsPerSwitch: hostsPerSwitch,
			FabricGbps: 400, HostGbps: 100, Seed: seed,
		})
	}
}

// Xpander builds an Xpander expander fabric.
func Xpander(degree, lift, hostsPerSwitch int, seed uint64) func() (*Network, error) {
	return func() (*Network, error) {
		return topology.NewXpander(topology.XpanderConfig{
			Degree: degree, Lift: lift, HostsPerSwitch: hostsPerSwitch,
			FabricGbps: 400, HostGbps: 100, Seed: seed,
		})
	}
}

// AICluster builds a rail-optimized GPU training fabric.
func AICluster(servers, rails int) func() (*Network, error) {
	return func() (*Network, error) {
		return topology.NewAICluster(topology.AIClusterConfig{
			Servers: servers, RailsPerServer: rails, RailGbps: 400,
		})
	}
}

// Cluster is a running self-maintaining datacenter simulation.
type Cluster struct {
	w *scenario.World
}

// NewCluster builds a cluster. With no options it is a 16-leaf/4-spine hall
// at L0 with no staff — add WithLevel, WithRobots and WithTechnicians.
func NewCluster(opts ...Option) (*Cluster, error) {
	var o scenario.Options
	for _, opt := range opts {
		opt(&o)
	}
	w, err := scenario.Build(o)
	if err != nil {
		return nil, err
	}
	return &Cluster{w: w}, nil
}

// Run advances virtual time by d.
func (c *Cluster) Run(d Time) { c.w.Run(c.w.Eng.Now() + d) }

// Now returns the current virtual time.
func (c *Cluster) Now() Time { return c.w.Eng.Now() }

// Network returns the underlying topology (read-only by convention).
func (c *Cluster) Network() *Network { return c.w.Net }

// InjectFault forces a fault on the nth fabric link (scenario hook). It
// returns the link name.
func (c *Cluster) InjectFault(n int, cause Cause) (string, error) {
	fabric := c.w.Net.SwitchLinks()
	if n < 0 || n >= len(fabric) {
		return "", fmt.Errorf("selfmaint: fabric link %d out of range (have %d)", n, len(fabric))
	}
	l := fabric[n]
	if c.w.Inj.State(l.ID).Cause != faults.None {
		return "", fmt.Errorf("selfmaint: link %s already faulted", l.Name())
	}
	c.w.Inj.InduceFault(l, cause)
	return l.Name(), nil
}

// Report summarizes a run.
type Report struct {
	Elapsed            Time
	TicketsOpened      int
	TicketsResolved    int
	MeanServiceWindow  Time
	P99ServiceWindowH  float64
	FleetAvailability  float64
	DownLinkHours      float64
	DegradedLinkHours  float64
	RobotTasks         int
	HumanTasks         int
	EscalationsToHuman int
	CascadesDuringOps  int
	ProactiveTasks     int
	PredictiveTasks    int
	WatchdogFires      int
	LateOutcomes       int
	DegradedTickets    int
}

// Report computes the current run summary.
func (c *Cluster) Report() Report {
	sum := c.w.Store.Summarize()
	var st core.Stats
	if c.w.Ctrl != nil {
		st = c.w.Ctrl.Stats()
	}
	h := c.w.ReactiveServiceWindows()
	return Report{
		Elapsed:            c.w.Eng.Now(),
		TicketsOpened:      sum.Total,
		TicketsResolved:    sum.Resolved,
		MeanServiceWindow:  sum.MeanWindow,
		P99ServiceWindowH:  h.Quantile(0.99),
		FleetAvailability:  c.w.Ledger.FleetAvailability(),
		DownLinkHours:      c.w.Ledger.DownLinkHours(),
		DegradedLinkHours:  c.w.Ledger.DegradedLinkHours(),
		RobotTasks:         st.RobotTasks,
		HumanTasks:         st.HumanTasks,
		EscalationsToHuman: st.EscalationsToHuman,
		CascadesDuringOps:  st.CascadesDuringOps,
		ProactiveTasks:     st.ProactiveTasks,
		PredictiveTasks:    st.PredictiveTasks,
		WatchdogFires:      st.WatchdogFires,
		LateOutcomes:       st.LateOutcomes,
		DegradedTickets:    st.DegradedTickets,
	}
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "after %v:\n", r.Elapsed)
	fmt.Fprintf(&b, "  tickets: %d opened, %d resolved (mean window %v, p99 %.1fh)\n",
		r.TicketsOpened, r.TicketsResolved, r.MeanServiceWindow, r.P99ServiceWindowH)
	fmt.Fprintf(&b, "  availability: %.6f (%.1f down link-hours, %.1f degraded)\n",
		r.FleetAvailability, r.DownLinkHours, r.DegradedLinkHours)
	fmt.Fprintf(&b, "  work: %d robot tasks, %d human tasks, %d escalations, %d cascades\n",
		r.RobotTasks, r.HumanTasks, r.EscalationsToHuman, r.CascadesDuringOps)
	if r.ProactiveTasks+r.PredictiveTasks > 0 {
		fmt.Fprintf(&b, "  proactive: %d campaign tasks, %d predictive\n", r.ProactiveTasks, r.PredictiveTasks)
	}
	if r.WatchdogFires+r.LateOutcomes+r.DegradedTickets > 0 {
		fmt.Fprintf(&b, "  watchdog: %d fired, %d late outcomes, %d tickets degraded to human\n",
			r.WatchdogFires, r.LateOutcomes, r.DegradedTickets)
	}
	return b.String()
}

// DecisionLog returns up to n recent controller decisions (dispatches,
// drains, escalations, campaigns), oldest first, one "[at] text" line
// each, where text is the decision's journal.decision event text (see
// EventText). n <= 0 returns everything retained.
func (c *Cluster) DecisionLog(n int) []string {
	if c.w.Ctrl == nil {
		return nil
	}
	var out []string
	for _, e := range c.w.Ctrl.Journal(n) {
		out = append(out, fmt.Sprintf("[%v] %v", e.At, flightrec.Convert(e)))
	}
	return out
}

// TicketLog returns one formatted line per ticket, in creation order — the
// operational audit trail.
func (c *Cluster) TicketLog() []string {
	var out []string
	for _, t := range c.w.Store.All() {
		line := fmt.Sprintf("[%v] %s %s %s", t.CreatedAt, t.Link.Name(), t.Kind, t.Status)
		if t.Status == ticket.Resolved {
			line += fmt.Sprintf(" in %v after %d attempt(s)", t.ServiceWindow(), len(t.Attempts))
			for _, a := range t.Attempts {
				if a.Fixed {
					line += fmt.Sprintf(" [fixed by %s via %s]", a.Actor, a.Action)
				}
			}
		}
		out = append(out, line)
	}
	return out
}

// Availability evaluates a uniform traffic matrix of the given total load
// (Gbps) and returns the satisfied fraction right now. A load that provably
// overloads no link is answered without computing link loads; the result
// is the same either way.
func (c *Cluster) Availability(totalGbps float64) float64 {
	return c.w.TrafficAvailability(routing.UniformMatrix(c.w.Net, totalGbps))
}

// ServiceWindowCDF returns (hours, fraction) pairs for resolved reactive
// repairs.
func (c *Cluster) ServiceWindowCDF(points int) (hours, frac []float64) {
	return c.w.ReactiveServiceWindows().CDF(points)
}

// World exposes the underlying wired world for advanced scenarios (the
// experiment harness uses it). Most users never need it.
func (c *Cluster) World() *scenario.World { return c.w }

// Recording is an attached flight recorder; see RecordTo.
type Recording = scenario.Recording

// RecordTo attaches a flight recorder to the cluster: every bus event plus
// periodic metric snapshots (when snapshotEvery > 0) stream to w in the
// flightrec binary format, and Close appends the end-of-run scalars and a
// fingerprint trailer. Recording is passive — a recorded run produces
// byte-for-byte the same Report as an unrecorded one. meta is free-form
// run identification (seed, level, config digest) stored in the file
// header. Call (*Recording).Close before reading the output.
func (c *Cluster) RecordTo(w io.Writer, meta map[string]string, snapshotEvery Time) (*Recording, error) {
	return c.w.StartRecording(w, meta, snapshotEvery)
}

// Histogram re-exports the metrics histogram for custom analyses.
type Histogram = metrics.Histogram

// MaintainabilityReport re-exports the self-maintainability evaluation of a
// network design (§4's proposed metric).
type MaintainabilityReport = maintindex.Report

// EvaluateMaintainability scores a topology's amenability to robotic
// maintenance: a composite of locality, panel clarity, tray headroom, run
// length, drain tolerance, repair parallelism, media simplicity and wiring
// regularity, in [0,100].
func EvaluateMaintainability(n *Network) MaintainabilityReport {
	return maintindex.Evaluate(n, maintindex.DefaultConfig())
}
