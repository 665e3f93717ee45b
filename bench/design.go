package main

import (
	"fmt"
	"time"

	"repro/internal/maintindex"
	"repro/internal/topology"
)

// design is one candidate fabric of the topology-design workload.
type design struct {
	name   string
	seeded bool // the wiring is random: its seed derives from the workload seed
	build  func(seed uint64) (*topology.Network, error)
}

// designs are F4's four 20-switch-budget fabrics plus two larger Clos
// designs, all 100G: the set a planner scores when choosing a topology.
var designs = []design{
	{"fat-tree-k4", false, func(uint64) (*topology.Network, error) {
		return topology.NewFatTree(topology.FatTreeConfig{K: 4, FabricGbps: 100, HostGbps: 100})
	}},
	{"leaf-spine-16x4", false, func(uint64) (*topology.Network, error) {
		return topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 16, Spines: 4, HostsPerLeaf: 8, Uplinks: 1, FabricGbps: 100, HostGbps: 100})
	}},
	{"jellyfish-n20-r8", true, func(seed uint64) (*topology.Network, error) {
		return topology.NewJellyfish(topology.JellyfishConfig{Switches: 20, FabricDegree: 8, HostsPerSwitch: 8, FabricGbps: 100, HostGbps: 100, Seed: seed})
	}},
	{"xpander-d9-k2", true, func(seed uint64) (*topology.Network, error) {
		return topology.NewXpander(topology.XpanderConfig{Degree: 9, Lift: 2, HostsPerSwitch: 8, FabricGbps: 100, HostGbps: 100, Seed: seed})
	}},
	{"fat-tree-k8", false, func(uint64) (*topology.Network, error) {
		return topology.NewFatTree(topology.FatTreeConfig{K: 8, FabricGbps: 100, HostGbps: 100})
	}},
	{"leaf-spine-32x8", false, func(uint64) (*topology.Network, error) {
		return topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 32, Spines: 8, HostsPerLeaf: 8, Uplinks: 1, FabricGbps: 100, HostGbps: 100})
	}},
}

// designWorkers is the routing engine's worker bound in every measured
// evaluation; the traced run adds one round at 1 for maintindex.speedup.
const designWorkers = 2

// candidate is a built design and its op key.
type candidate struct {
	d   design
	net *topology.Network
	key string
}

func buildCandidates(r *run, ds []design, parent int) ([]candidate, error) {
	cs := make([]candidate, len(ds))
	for i, d := range ds {
		seed := uint64(0)
		key := "topology-design/" + d.name
		if d.seeded {
			seed = derive(r.o.seed, i)
			key += fmt.Sprintf("/seed=%d", seed)
		}
		var err error
		r.timeCall(parent, "topology.build_ms", func() { cs[i].net, err = d.build(seed) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		cs[i].d, cs[i].key = d, key
	}
	return cs, nil
}

// evaluate scores one candidate. The report's digest must equal every
// other evaluation of the same design in the run, at any worker count.
func (r *run) evaluate(c candidate, workers, parent int) time.Duration {
	r.res.Attempted++
	cfg := maintindex.DefaultConfig()
	cfg.Workers = workers
	t0 := time.Now()
	rep := maintindex.Evaluate(c.net, cfg)
	d := time.Since(t0)
	if r.tr != nil {
		r.tr.interval(parent, "maintindex.evaluate", fmt.Sprintf("%s workers=%d", c.d.name, workers), t0, t0.Add(d))
	}
	var g digest
	cp := rep.Components
	g.add(rep.Name, rep.Index, rep.ThroughputNorm, rep.OfferedGbps, rep.SatisfiedGbps, rep.FabricLinks,
		cp.Locality, cp.PortClarity, cp.TrayHeadroom, cp.ShortRuns, cp.DrainTolerance, cp.Parallelism,
		cp.MediaSimplicity, cp.Regularity)
	r.digestOp(c.key, g.sum())
	return d
}

// runDesigns is the topology-design workload: rounds of maintindex.Evaluate
// over every design. Set-up is building the candidate networks.
func runDesigns(r *run) error {
	ds := designs
	if r.o.toy {
		ds = designs[:1]
	}
	var cs []candidate
	setupS, err := r.measureSetup(nil, func() (err error) {
		cs, err = buildCandidates(r, ds, 0)
		return err
	})
	if err != nil {
		return err
	}
	var evalMs []float64
	round := func(parent int) {
		span := r.begin(parent, "round", fmt.Sprintf("workers=%d", designWorkers))
		var total time.Duration
		for _, c := range cs {
			d := r.evaluate(c, designWorkers, span)
			total += d
			evalMs = append(evalMs, ms(d))
			r.sample("maintindex."+c.d.name+".evaluate_ms", ms(d))
		}
		r.end(span)
		r.sample("maintindex.round_ms", ms(total))
	}

	if r.trace == nil {
		rounds, _ := timebox(r.o.seconds, func(int) error { round(0); return nil })
		r.reportEndToEnd(setupS, float64(len(cs)), rounds, evalMs)
		return nil
	}

	// Traced: every round runs untraced and traced; then one traced round
	// at one worker gives the speed-up.
	wl := r.trace.begin(0, "workload", "topology-design")
	defer r.trace.end(wl)
	r.traced(func() { cs, err = buildCandidates(r, ds, wl) })
	if err != nil {
		return err
	}
	rounds, _ := r.pairs(r.o.seconds*2/3, func(int) error { round(wl); return nil })
	var serial time.Duration
	r.traced(func() {
		span := r.begin(wl, "round", "workers=1")
		for _, c := range cs {
			serial += r.evaluate(c, 1, span)
		}
		r.end(span)
	})
	r.counts["maintindex.speedup"] = ms(serial) / median(r.samples["maintindex.round_ms"])
	r.reportLayers(rounds * len(cs))
	return nil
}
