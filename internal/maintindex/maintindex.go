// Package maintindex implements the metric the paper asks for in §4:
// "perhaps we can create a metric for self-maintainability of a network
// design?". It scores how amenable a topology's physical realization is to
// robotic maintenance, and pairs the score with normalized throughput so
// the deployability-vs-efficiency tradeoff (Jellyfish/Xpander vs Clos) can
// be plotted.
//
// The index aggregates seven physically grounded components, each in [0,1]
// with 1 maintenance-friendly:
//
//   - Locality: fraction of fabric links confined to one row — row-scope
//     robots (§3.4) can service them without hall-level mobility.
//   - PortClarity: 1 − normalized occlusion at fabric ports; cluttered
//     panels defeat perception and grippers (§3.3.3).
//   - TrayHeadroom: 1 − normalized peak tray occupancy on fabric runs;
//     crowded trays make cable extraction disturb neighbours.
//   - ShortRuns: 1 − normalized mean cable run length; long irregular looms
//     are what makes expanders hard to deploy (§4, deployability).
//   - DrainTolerance: mean traffic availability while a single fabric link
//     is drained for maintenance — can the topology afford repairs?
//   - Parallelism: distinct rack faces hosting fabric ports per fabric
//     link — how many repairs can proceed simultaneously (one robot per
//     face).
//   - MediaSimplicity: penalizes cable-class diversity, the automation
//     enemy the paper singles out (§4, hardware standardization).
//   - Regularity: fraction of fabric links whose physical run repeats a
//     common template (same row/rack offset and length class). Regular runs
//     can be pre-bundled and handled by one learned robot motion; the
//     irregular looms of random graphs are exactly the deployability
//     obstacle the paper cites for expanders (§4).
package maintindex

import (
	"fmt"
	"math"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Components are the per-dimension scores, each in [0,1].
type Components struct {
	Locality        float64
	PortClarity     float64
	TrayHeadroom    float64
	ShortRuns       float64
	DrainTolerance  float64
	Parallelism     float64
	MediaSimplicity float64
	Regularity      float64
}

// Weights for the composite index; they sum to 1.
var weights = []float64{0.10, 0.10, 0.10, 0.10, 0.17, 0.08, 0.08, 0.27}

// Report is the full evaluation of one topology.
type Report struct {
	Name       string
	Components Components
	// Index is the composite self-maintainability score in [0,100].
	Index float64
	// ThroughputNorm is the satisfied fraction of a full-injection uniform
	// traffic matrix — the efficiency axis of the tradeoff plot.
	ThroughputNorm float64
	// OfferedGbps and SatisfiedGbps are the absolute rates behind
	// ThroughputNorm's fraction, so consumers needing per-switch or
	// per-host goodput do not have to re-run the uniform probe.
	OfferedGbps   float64
	SatisfiedGbps float64
	FabricLinks   int
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s: index=%.1f throughput=%.3f (loc=%.2f clar=%.2f tray=%.2f runs=%.2f drain=%.2f par=%.2f media=%.2f reg=%.2f)",
		r.Name, r.Index, r.ThroughputNorm,
		r.Components.Locality, r.Components.PortClarity, r.Components.TrayHeadroom,
		r.Components.ShortRuns, r.Components.DrainTolerance, r.Components.Parallelism,
		r.Components.MediaSimplicity, r.Components.Regularity)
}

// drainSamples caps how many single-link drains are evaluated for
// DrainTolerance (every k-th fabric link is sampled deterministically).
const drainSamples = 24

// Config is what callers pass to Evaluate. No field changes the result:
// Evaluate always samples up to drainSamples drains and offers full host
// injection to its throughput probe.
type Config struct {
	// Workers is ignored: the routing engine rebuilds serially.
	//
	// Deprecated: it has no effect and will be removed.
	Workers int
}

// DefaultConfig returns the zero Config.
func DefaultConfig() Config { return Config{} }

// Evaluate scores a topology.
func Evaluate(net *topology.Network, cfg Config) Report {
	fabric := net.SwitchLinks()
	rep := Report{Name: net.Name, FabricLinks: len(fabric)}
	if len(fabric) == 0 {
		return rep
	}

	// Locality, runs, tray, occlusion, media.
	local := 0
	var runSum float64
	var traySum float64
	var occlSum float64
	classes := map[topology.CableClass]bool{}
	for _, l := range fabric {
		if l.A.Device.Loc.Row == l.B.Device.Loc.Row {
			local++
		}
		runSum += l.Cable.LengthM
		traySum += float64(net.Layout.TrayOccupancy(l))
		occlSum += float64(net.OcclusionAt(l.A)+net.OcclusionAt(l.B)) / 2
		classes[l.Cable.Class] = true
	}
	n := float64(len(fabric))
	rep.Components.Locality = float64(local) / n
	rep.Components.ShortRuns = clamp01(1 - (runSum/n)/40)      // 40 m run ≈ fully penalized
	rep.Components.TrayHeadroom = clamp01(1 - (traySum/n)/64)  // 64 cables/segment ≈ full
	rep.Components.PortClarity = clamp01(1 - (occlSum/n)/12)   // 12 neighbours ≈ opaque
	rep.Components.MediaSimplicity = 1 / float64(len(classes)) // 1 class → 1.0

	// Regularity: bucket each run by (row offset, rack offset, 5 m length
	// class); the fewer distinct templates per link, the more repeatable
	// deployment and maintenance motions are.
	templates := map[[3]int]bool{}
	for _, l := range fabric {
		la, lb := l.A.Device.Loc, l.B.Device.Loc
		dr, dk := la.Row-lb.Row, la.Rack-lb.Rack
		if dr < 0 {
			dr, dk = -dr, -dk
		}
		templates[[3]int{dr, dk, int(l.Cable.LengthM / 5)}] = true
	}
	rep.Components.Regularity = clamp01(1 - float64(len(templates))/n)

	// Parallelism: distinct rack faces with fabric ports, per fabric link,
	// saturating at 1 when faces >= links/4 (a quarter of repairs can run
	// at once).
	faces := map[[3]int]bool{}
	for _, l := range fabric {
		for _, p := range []*topology.Port{l.A, l.B} {
			loc := p.Device.Loc
			faces[[3]int{loc.Row, loc.Rack, int(loc.Face)}] = true
		}
	}
	rep.Components.Parallelism = clamp01(float64(len(faces)) / (n / 4))

	// Throughput probe and drain tolerance, at full host injection.
	var load float64
	for _, h := range net.Hosts() {
		for _, p := range h.Ports {
			if p.Link != nil {
				load += p.Link.GbpsCap
			}
		}
	}
	router := routing.NewRouter(net, nil)
	tm := routing.UniformMatrix(net, load)
	var ws routing.Workspace
	base := router.EvaluateInto(&ws, tm)
	rep.ThroughputNorm = base.Availability()
	rep.OfferedGbps = base.OfferedGbps
	rep.SatisfiedGbps = base.SatisfiedGbps

	step := len(fabric) / drainSamples
	if step < 1 {
		step = 1
	}
	var drainSum float64
	drains := 0
	// Each drain/undrain pair invalidates only the cache entries whose
	// shortest paths crossed the drained link, and the destination-rooted
	// engine shelves displaced per-destination structures keyed by subgraph
	// signature — every undrain restores the pre-drain arenas wholesale, so
	// the sweep re-enumerates only what each drain actually changed.
	for i := 0; i < len(fabric); i += step {
		l := fabric[i]
		router.Drain(l.ID)
		drainSum += router.EvaluateInto(&ws, tm).Availability()
		router.Undrain(l.ID)
		drains++
	}
	if drains > 0 {
		rep.Components.DrainTolerance = clamp01(drainSum / float64(drains) / math.Max(rep.ThroughputNorm, 1e-9))
	}

	c := rep.Components
	comps := []float64{c.Locality, c.PortClarity, c.TrayHeadroom, c.ShortRuns,
		c.DrainTolerance, c.Parallelism, c.MediaSimplicity, c.Regularity}
	for i, v := range comps {
		rep.Index += 100 * weights[i] * v
	}
	return rep
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
