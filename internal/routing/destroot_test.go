package routing

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// buildTopo constructs one of the four studied topology families at modest
// scale (routing cannot import maintindex's builders: maintindex depends on
// routing).
func buildTopo(t *testing.T, kind string) *topology.Network {
	t.Helper()
	var (
		n   *topology.Network
		err error
	)
	switch kind {
	case "fattree":
		n, err = topology.NewFatTree(topology.DefaultFatTree(4))
	case "leafspine":
		n, err = topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: 8, Spines: 4, HostsPerLeaf: 8, Uplinks: 1,
			FabricGbps: 400, HostGbps: 100,
		})
	case "jellyfish":
		n, err = topology.NewJellyfish(topology.JellyfishConfig{
			Switches: 24, FabricDegree: 6, HostsPerSwitch: 3,
			FabricGbps: 400, HostGbps: 100, Seed: 1,
		})
	case "xpander":
		n, err = topology.NewXpander(topology.XpanderConfig{
			Degree: 6, Lift: 4, HostsPerSwitch: 3,
			FabricGbps: 400, HostGbps: 100, Seed: 1,
		})
	default:
		t.Fatalf("unknown topology kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// specField is dst's BFS distance field over r's usability snapshot. It is
// computed by topology.HopDistances, so the spec shares no distance code
// with the engine it checks.
func specField(r *Router, dst topology.DeviceID) []int {
	return r.net.HopDistances(dst, func(l *topology.Link) bool { return r.lastUsable[l.ID] })
}

// specPaths is the executable specification of one demand's ECMP paths, a
// plain per-pair enumerator with no cache: up to maxPaths shortest src→dst
// paths, enumerated depth-first over the DAG of dst's field dist with
// neighbours in adjacency order, over r's usability snapshot. It reads only
// r.net and r.lastUsable.
func specPaths(r *Router, dist []int, src, dst topology.DeviceID) []topology.Path {
	if src == dst || dist[src] < 0 {
		return nil
	}
	var out []topology.Path
	var cur topology.Path
	var walk func(d topology.DeviceID)
	walk = func(d topology.DeviceID) {
		if d == dst {
			out = append(out, slices.Clone(cur))
			return
		}
		for _, np := range r.net.Neighbors(d) {
			if len(out) >= maxPaths {
				return
			}
			if r.lastUsable[np.Link.ID] && dist[np.Peer.ID] == dist[d]-1 {
				cur = append(cur, np.Link)
				walk(np.Peer.ID)
				cur = cur[:len(cur)-1]
			}
		}
	}
	walk(src)
	return out
}

// specMatrixPaths resolves every demand of tm through specPaths, computing
// each destination's field once.
func specMatrixPaths(r *Router, tm TrafficMatrix) [][]topology.Path {
	fields := map[topology.DeviceID][]int{}
	paths := make([][]topology.Path, len(tm.Demands))
	for i, d := range tm.Demands {
		dist, ok := fields[d.Dst]
		if !ok {
			dist = specField(r, d.Dst)
			fields[d.Dst] = dist
		}
		paths[i] = specPaths(r, dist, d.Src, d.Dst)
	}
	return paths
}

// referenceEvaluate is the executable specification of EvaluateInto: every
// demand splits evenly over its spec paths (paths, aligned with tm's
// demands), and each path carries its share divided by the worst overload
// factor among all of its links.
func referenceEvaluate(net *topology.Network, tm TrafficMatrix, paths [][]topology.Path) Assessment {
	as := Assessment{
		PerDemand: make([]float64, len(tm.Demands)),
		LinkLoad:  make([]float64, len(net.Links)),
	}
	for i, d := range tm.Demands {
		as.OfferedGbps += d.Gbps
		if len(paths[i]) == 0 {
			as.Unreachable++
			continue
		}
		share := d.Gbps / float64(len(paths[i]))
		for _, p := range paths[i] {
			for _, l := range p {
				as.LinkLoad[l.ID] += share
			}
		}
	}
	over := make([]float64, len(net.Links))
	for id, load := range as.LinkLoad {
		if c := net.Links[id].GbpsCap; c > 0 {
			u := load / c
			if u > as.MaxUtil {
				as.MaxUtil = u
			}
			if u > 1 {
				over[id] = u
			}
		}
	}
	for i, d := range tm.Demands {
		if len(paths[i]) == 0 {
			continue
		}
		share := d.Gbps / float64(len(paths[i]))
		achieved := 0.0
		for _, p := range paths[i] {
			worst := 1.0
			for _, l := range p {
				if over[l.ID] > worst {
					worst = over[l.ID]
				}
			}
			achieved += share / worst
		}
		as.SatisfiedGbps += achieved
		as.PerDemand[i] = achieved / d.Gbps
	}
	return as
}

// specWorstLatency is the executable specification of WorstPairLatency: the
// worst of each PathLatency percentile over every spec path, under a's
// loads.
func specWorstLatency(lm LatencyModel, net *topology.Network, paths [][]topology.Path, a Assessment, loss LossFn) Percentiles {
	util := func(id topology.LinkID) float64 {
		if c := net.Links[id].GbpsCap; c > 0 {
			return a.LinkLoad[id] / c
		}
		return 0
	}
	var worst Percentiles
	for _, ps := range paths {
		for _, p := range ps {
			pc := lm.PathLatency(p, util, loss)
			worst.P50 = max(worst.P50, pc.P50)
			worst.P99 = max(worst.P99, pc.P99)
			worst.P999 = max(worst.P999, pc.P999)
		}
	}
	return worst
}

// hostInjection is the fabric's full host injection rate: the summed
// capacity of every host link.
func hostInjection(net *topology.Network) float64 {
	var total float64
	for _, h := range net.Hosts() {
		for _, p := range h.Ports {
			if p.Link != nil {
				total += p.Link.GbpsCap
			}
		}
	}
	return total
}

// Differential property pinning the destination-rooted engine to its
// executable specification: across topology families × randomized
// drain/fault/repair sequences over every link (host links included, so
// sources lose uplinks and become unreachable) × seeds × three loads, an
// incrementally maintained engine router at every worker count produces
// Assessments byte-identical to referenceEvaluate over the spec paths of a
// router that full-flushes after every change. 700 Gbps never overloads a
// link; full and twice-full host injection do, so both branches of the
// satisfaction pass and the bottleneck scan's first hop are pinned. Once
// per step, at full injection, the workers=1 engine's WorstPairLatency must
// equal specWorstLatency exactly, under 20% loss on one random link and a
// small loss elsewhere.
func TestDestRootedMatchesPerPairEnumerator(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	lm := DefaultLatencyModel()
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander"} {
		for _, seed := range []uint64{3, 11, 29} {
			net := buildTopo(t, kind)
			down := map[topology.LinkID]bool{}
			health := func(id topology.LinkID) bool { return !down[id] }
			ref := NewRouter(net, health)
			engines := make([]*Router, len(workerCounts))
			wss := make([]Workspace, len(workerCounts))
			for i, w := range workerCounts {
				engines[i] = NewRouter(net, health)
				engines[i].Workers = w
			}
			full := hostInjection(net)
			const fullLoad = 1 // index of full host injection in tms
			tms := []TrafficMatrix{UniformMatrix(net, 700), UniformMatrix(net, full), UniformMatrix(net, 2*full)}
			rng := rand.New(rand.NewPCG(seed, 0xd357))
			lossRng := rand.New(rand.NewPCG(seed, 0x1055))
			for step := 0; step < 20; step++ {
				l := net.Links[rng.IntN(len(net.Links))]
				switch rng.IntN(4) {
				case 0: // fault onset or flap-down
					down[l.ID] = true
				case 1: // repair or flap-up
					down[l.ID] = false
				case 2:
					ref.Drain(l.ID)
					for _, e := range engines {
						e.Drain(l.ID)
					}
				case 3:
					ref.Undrain(l.ID)
					for _, e := range engines {
						e.Undrain(l.ID)
					}
				}
				ref.InvalidateLink(l.ID)
				for _, e := range engines {
					e.InvalidateLink(l.ID)
				}
				ref.Invalidate() // the reference always full-flushes
				// UniformMatrix emits the same pairs at every load, so one
				// resolution of the spec paths serves all three.
				paths := specMatrixPaths(ref, tms[0])
				lossy := net.Links[lossRng.IntN(len(net.Links))].ID
				loss := func(id topology.LinkID) float64 {
					if id == lossy {
						return 0.2
					}
					return 0.001 * float64(id%5)
				}
				for li, tm := range tms {
					want := referenceEvaluate(net, tm, paths)
					for i, e := range engines {
						got := e.EvaluateInto(&wss[i], tm)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s seed %d step %d %.0f Gbps workers=%d: engine %v != per-pair reference %v",
								kind, seed, step, tm.TotalGbps(), workerCounts[i], got, want)
						}
					}
					if li != fullLoad {
						continue
					}
					got := lm.WorstPairLatency(engines[0], tm, want, loss)
					if wantLat := specWorstLatency(lm, net, paths, want, loss); got != wantLat {
						t.Fatalf("%s seed %d step %d: WorstPairLatency %+v != spec %+v", kind, seed, step, got, wantLat)
					}
				}
			}
		}
	}
}

// Drain-sweep cache reuse: a maintindex-style Drain → EvaluateInto → Undrain
// sweep over every fabric link must be byte-identical to a fresh-router
// evaluation at every step, both in the drained and the restored state —
// the sequence where shelf restoration (not just single-op invalidation)
// carries the result.
func TestDrainSweepCacheReuse(t *testing.T) {
	for _, kind := range []string{"fattree", "xpander"} {
		net := buildTopo(t, kind)
		r := NewRouter(net, nil)
		tm := UniformMatrix(net, 700)
		var ws Workspace
		base := r.EvaluateInto(&ws, tm)
		if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(base), asValue(want)) {
			t.Fatalf("%s: baseline %v != fresh %v", kind, base, want)
		}
		for i, l := range net.SwitchLinks() {
			r.Drain(l.ID)
			got := r.EvaluateInto(&ws, tm)
			if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(got), asValue(want)) {
				t.Fatalf("%s link %d drained: swept %v != fresh %v", kind, i, got, want)
			}
			r.Undrain(l.ID)
			got = r.EvaluateInto(&ws, tm)
			if want := freshEvaluate(r, tm); !reflect.DeepEqual(asValue(got), asValue(want)) {
				t.Fatalf("%s link %d restored: swept %v != fresh %v", kind, i, got, want)
			}
		}
	}
}

// asValue deep-copies an Assessment's slices so workspace-aliased results
// can be compared structurally.
func asValue(a Assessment) Assessment {
	a.PerDemand = append([]float64(nil), a.PerDemand...)
	a.LinkLoad = append([]float64(nil), a.LinkLoad...)
	return a
}

// A warm drain → evaluate → undrain → evaluate cycle — the maintindex sweep
// step — must allocate nothing: shelved structures restore via the subgraph
// signature and rebuilds recycle retained arenas.
func TestDrainSweepWarmZeroAlloc(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	fabric := net.SwitchLinks()
	l0, l1 := fabric[0], fabric[len(fabric)/2]
	cycle := func(l *topology.Link) {
		r.Drain(l.ID)
		r.EvaluateInto(&ws, tm)
		r.Undrain(l.ID)
		r.EvaluateInto(&ws, tm)
	}
	// Warm every buffer the cycle can touch: both links' drained and
	// restored states, free lists and arenas.
	for i := 0; i < 3; i++ {
		cycle(l0)
		cycle(l1)
	}
	if allocs := testing.AllocsPerRun(20, func() { cycle(l0); cycle(l1) }); allocs > 0 {
		t.Fatalf("warm drain sweep cycle allocated %.1f/op, want 0", allocs)
	}
}

// Per-function warm-allocation assertions for the engine's hot functions:
// prepareDests on a fully valid matrix and buildDest into a recycled
// destState must both be allocation-free.
func TestDestRootedHotFunctionsZeroAlloc(t *testing.T) {
	net := buildTopo(t, "leafspine")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	r.EvaluateInto(&ws, tm)

	if allocs := testing.AllocsPerRun(50, func() { r.prepareDests(tm) }); allocs > 0 {
		t.Fatalf("warm prepareDests allocated %.1f/op, want 0", allocs)
	}

	dst := tm.Demands[0].Dst
	e := r.distEntryFor(dst)
	ds := r.destCur[dst]
	b := r.builderFor(0)
	r.buildDest(b, ds, dst, e) // size the builder scratch and arena
	if allocs := testing.AllocsPerRun(50, func() { r.buildDest(b, ds, dst, e) }); allocs > 0 {
		t.Fatalf("buildDest into recycled state allocated %.1f/op, want 0", allocs)
	}
}

// On a k=4 fat-tree, cross-pod hosts are joined by 2 aggs × 2 cores = 4
// equal-cost paths of 6 links (host-edge-agg-core-agg-edge-host).
func TestFatTreeCrossPodEqualCostPaths(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	hosts := net.Hosts()
	d := Demand{Src: hosts[0].ID, Dst: hosts[len(hosts)-1].ID, Gbps: 1}
	r.prepareDests(TrafficMatrix{Demands: []Demand{d}})
	ds, n := r.routeCount(d)
	if n != 4 {
		t.Fatalf("cross-pod equal-cost paths = %d, want 4", n)
	}
	if k := ds.plen[d.Src]; k != 6 {
		t.Fatalf("cross-pod path length = %d, want 6", k)
	}
}
