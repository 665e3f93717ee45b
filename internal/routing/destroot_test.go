package routing

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// buildTopo constructs one of the four studied topology families, or a
// rail-optimized AI cluster whose GPU servers are multi-homed, at modest
// scale (routing cannot import maintindex's builders: maintindex depends on
// routing).
func buildTopo(t testing.TB, kind string) *topology.Network {
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
	case "aicluster":
		n, err = topology.NewAICluster(topology.AIClusterConfig{
			Servers: 8, RailsPerServer: 3, RailGbps: 400,
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

// endpointMatrix pairs every host with its first attachment switch in both
// directions and adds three switch↔switch pairs, gbps per demand. It puts
// sources at a single-homed destination's root, and makes destinations of
// devices that are other destinations' roots.
func endpointMatrix(net *topology.Network, gbps float64) TrafficMatrix {
	tm := TrafficMatrix{Name: "endpoints"}
	for _, h := range net.Hosts() {
		sw := net.Neighbors(h.ID)[0].Peer.ID
		tm.Demands = append(tm.Demands,
			Demand{Src: h.ID, Dst: sw, Gbps: gbps},
			Demand{Src: sw, Dst: h.ID, Gbps: gbps})
	}
	var switches []topology.DeviceID
	for _, d := range net.Devices {
		if d.Kind.IsSwitch() {
			switches = append(switches, d.ID)
		}
	}
	for i := range 3 {
		a, b := switches[i], switches[len(switches)-1-i]
		tm.Demands = append(tm.Demands,
			Demand{Src: a, Dst: b, Gbps: gbps},
			Demand{Src: b, Dst: a, Gbps: gbps})
	}
	return tm
}

// mixedMatrix rearranges uniform's demands to pin EvaluateInto's run
// boundaries: every third demand at twice the rate, the first source's
// self-pair inserted after its first demand (whose destination shares the
// source's switch), the fifth demand duplicated next to itself, and the
// second half reordered so that, within each source, consecutive
// destinations hang off different switches. It also returns, for each of
// its demands, the index of uniform's demand with the same pair (-1 for the
// self-pair), so that uniform's spec paths serve it.
func mixedMatrix(net *topology.Network, uniform TrafficMatrix) (TrafficMatrix, []int) {
	dm := uniform.Demands
	attach := func(d topology.DeviceID) topology.DeviceID {
		if nb := net.Neighbors(d); len(nb) == 1 {
			return nb[0].Peer.ID
		}
		return d
	}
	half := len(dm) / 2
	rank := make([]int, len(dm)) // a demand's place among its source's demands to one switch
	seen := map[[2]topology.DeviceID]int{}
	for i := half; i < len(dm); i++ {
		key := [2]topology.DeviceID{dm[i].Src, attach(dm[i].Dst)}
		rank[i] = seen[key]
		seen[key]++
	}
	order := make([]int, len(dm))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order[half:], func(a, b int) int {
		return cmp.Or(cmp.Compare(dm[a].Src, dm[b].Src), cmp.Compare(rank[a], rank[b]))
	})
	idx := slices.Concat(order[:1], []int{-1}, order[1:5], order[4:])
	tm := TrafficMatrix{Name: "mixed", Demands: make([]Demand, len(idx))}
	for i, j := range idx {
		if j < 0 {
			tm.Demands[i] = Demand{Src: dm[0].Src, Dst: dm[0].Src, Gbps: dm[0].Gbps}
			continue
		}
		tm.Demands[i] = dm[j]
		if j%3 == 2 {
			tm.Demands[i].Gbps *= 2
		}
	}
	return tm, idx
}

// Differential property pinning the destination-rooted engine to its
// executable specification: across topology families (the four studied
// ones, whose hosts are single-homed and served by their switch's
// structure, and an AI cluster, whose multi-homed GPU servers are their own
// roots until drains and faults leave them one rail) × randomized
// drain/fault/repair sequences over every link (host links included, so
// sources lose uplinks and become unreachable) × seeds × five matrices, an
// incrementally maintained engine router produces Assessments
// byte-identical to referenceEvaluate over the spec paths of a router that
// full-flushes after every change. The uniform matrix at 700 Gbps never
// overloads a link; at full and twice-full host injection it does, so both
// branches of the satisfaction pass and the path factors' first hop and
// tail are pinned. The endpoint matrix, at full host
// injection split over the hosts, overloads host links and puts sources at
// their destination's root. The mixed matrix (mixedMatrix), at full host
// injection, pins the run boundaries: a rate change, a self-pair and a
// root change each end a run, a duplicated demand stays in its run, and
// the tails of one run carry different overloads. Once per step, for the
// full-injection uniform matrix and the endpoint matrix, the engine's
// WorstPairLatency must equal specWorstLatency exactly, under 20% loss on
// one random link and a small loss elsewhere.
func TestDestRootedMatchesPerPairEnumerator(t *testing.T) {
	lm := DefaultLatencyModel()
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander", "aicluster"} {
		for _, seed := range []uint64{3, 11, 29} {
			net := buildTopo(t, kind)
			down := map[topology.LinkID]bool{}
			health := func(id topology.LinkID) bool { return !down[id] }
			ref := NewRouter(net, health)
			engine := NewRouter(net, health)
			var ws Workspace
			full := hostInjection(net)
			const fullLoad = 1 // index of full host injection in tms
			tms := []TrafficMatrix{UniformMatrix(net, 700), UniformMatrix(net, full), UniformMatrix(net, 2*full)}
			endpoints := endpointMatrix(net, full/float64(len(net.Hosts())))
			mixed, mixedIdx := mixedMatrix(net, tms[fullLoad])
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
					engine.Drain(l.ID)
				case 3:
					ref.Undrain(l.ID)
					engine.Undrain(l.ID)
				}
				ref.InvalidateLink(l.ID)
				engine.InvalidateLink(l.ID)
				ref.Invalidate() // the reference always full-flushes
				lossy := net.Links[lossRng.IntN(len(net.Links))].ID
				loss := func(id topology.LinkID) float64 {
					if id == lossy {
						return 0.2
					}
					return 0.001 * float64(id%5)
				}
				check := func(tm TrafficMatrix, paths [][]topology.Path, latency bool) {
					want := referenceEvaluate(net, tm, paths)
					if got := engine.EvaluateInto(&ws, tm); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d step %d %s %.0f Gbps: engine %v != per-pair reference %v",
							kind, seed, step, tm.Name, tm.TotalGbps(), got, want)
					}
					if !latency {
						return
					}
					got := lm.WorstPairLatency(engine, tm, want, loss)
					if wantLat := specWorstLatency(lm, net, paths, want, loss); got != wantLat {
						t.Fatalf("%s seed %d step %d %s: WorstPairLatency %+v != spec %+v", kind, seed, step, tm.Name, got, wantLat)
					}
				}
				// UniformMatrix emits the same pairs at every load, so one
				// resolution of the spec paths serves all three.
				paths := specMatrixPaths(ref, tms[0])
				for li, tm := range tms {
					check(tm, paths, li == fullLoad)
				}
				check(endpoints, specMatrixPaths(ref, endpoints), true)
				mixedPaths := make([][]topology.Path, len(mixedIdx))
				for i, j := range mixedIdx {
					if j >= 0 {
						mixedPaths[i] = paths[j]
					}
				}
				check(mixed, mixedPaths, false)
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
// the run walk on a fully valid matrix (with and without arenas),
// resolveRoot, and buildRoot and materialize into a recycled destState, over
// a cached field and over a fresh one, must all be allocation-free.
func TestDestRootedHotFunctionsZeroAlloc(t *testing.T) {
	net := buildTopo(t, "leafspine")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	r.EvaluateInto(&ws, tm)

	walk := func(arenas bool) {
		r.destSeq++
		for i := 0; i < len(tm.Demands); {
			i = r.runEnd(tm.Demands, i, arenas)
		}
	}
	for _, arenas := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(50, func() { walk(arenas) }); allocs > 0 {
			t.Fatalf("warm run walk (arenas %v) allocated %.1f/op, want 0", arenas, allocs)
		}
	}

	dst := tm.Demands[0].Dst
	if allocs := testing.AllocsPerRun(50, func() { r.resolveRoot(dst) }); allocs > 0 {
		t.Fatalf("resolveRoot allocated %.1f/op, want 0", allocs)
	}
	root, _ := r.resolveRoot(dst)
	e := r.distEntryFor(root)
	ds := r.destCur[root]
	build := func(fresh bool) {
		r.buildRoot(e, root, fresh, ds)
		r.materialize(ds)
	}
	build(true) // size the field's order, the draws and the arena
	for _, fresh := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(50, func() { build(fresh) }); allocs > 0 {
			t.Fatalf("buildRoot (fresh %v) and materialize into recycled state allocated %.1f/op, want 0", fresh, allocs)
		}
	}
}

// On a k=4 fat-tree, cross-pod hosts are joined by 2 aggs × 2 cores = 4
// equal-cost paths of 6 links (host-edge-agg-core-agg-edge-host). The
// destination host is single-homed, so its paths are its edge switch's
// paths of 5 links followed by the host link as the tail; the source host
// is a stub, so its paths are its own link followed by its edge switch's 4
// suffixes of 4 links.
func TestFatTreeCrossPodEqualCostPaths(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	hosts := net.Hosts()
	d := Demand{Src: hosts[0].ID, Dst: hosts[len(hosts)-1].ID, Gbps: 1}
	r.destSeq++
	tail := r.current(d.Dst, true).tail
	var one [1]draw
	_, n, k, segs := r.paths(d, &one)
	if n != 4 {
		t.Fatalf("cross-pod equal-cost paths = %d, want 4", n)
	}
	if tail < 0 {
		t.Fatal("single-homed destination resolved with no tail")
	}
	if k+1 != 6 {
		t.Fatalf("cross-pod path length = %d, want 6", k+1)
	}
	if len(segs) != 1 || segs[0].c != 4 {
		t.Fatalf("stub source segments = %v, want one of 4 suffixes", segs)
	}
}

// edgeCaseNet hand-builds the attachment cases the studied fabrics lack:
// a dual-homed server, a server with two parallel links to one switch, two
// servers joined only to each other (a stub pair), and a switch with a
// single link, beside two single-homed servers. The three other switches
// form a triangle, so some pairs have two equal-cost paths. Every link
// carries 100 Gbps.
func edgeCaseNet() *topology.Network {
	n := topology.New("edge-cases")
	dev := func(name string, kind topology.DeviceKind) *topology.Device {
		return n.AddDevice(name, kind, topology.Location{Rack: len(n.Devices)}, 6)
	}
	link := func(a, b *topology.Device) {
		n.Connect(n.FreePort(a), n.FreePort(b), topology.DAC, 100)
	}
	s1, s2 := dev("s1", topology.LeafSwitch), dev("s2", topology.LeafSwitch)
	sp, lone := dev("sp", topology.SpineSwitch), dev("lone", topology.SpineSwitch)
	dual, par := dev("dual", topology.Server), dev("par", topology.Server)
	h1, h2 := dev("h1", topology.Server), dev("h2", topology.Server)
	p1, p2 := dev("p1", topology.Server), dev("p2", topology.Server)
	link(s1, sp)
	link(s2, sp)
	link(s1, s2)
	link(lone, s2)
	link(dual, s1)
	link(dual, s2)
	link(par, s1)
	link(par, s1)
	link(h1, s1)
	link(h2, s2)
	link(p1, p2)
	return n
}

// checkStructures asserts that every valid current structure holds, for
// each device of its order, the spec's path count and length toward its
// root: as many suffixes as specPaths enumerates (one for the root itself)
// and its BFS distance.
func checkStructures(t *testing.T, r *Router, ctx string) {
	t.Helper()
	for i, ds := range r.destCur {
		if ds == nil || r.distCache[i].dist == nil || ds.stamp != r.distCache[i].stamp {
			continue
		}
		root := topology.DeviceID(i)
		dist := specField(r, root)
		for _, x := range ds.order {
			want := int32(len(specPaths(r, dist, topology.DeviceID(x), root)))
			if x == int32(root) {
				want = 1
			}
			if n := ds.node[x]; n.count != want || int(n.plen) != dist[x] {
				t.Fatalf("%s: structure toward %d: device %d has %d suffixes of %d links, spec %d of %d",
					ctx, root, x, n.count, n.plen, want, dist[x])
			}
		}
	}
}

// The stub and multi-homing edge cases, pinned to the executable
// specification. On edgeCaseNet, every ordered pair of devices (switches
// and the stub pair included) is evaluated at a light rate and at one that
// overloads links, first with each link drained alone and then along a
// sweep that drains every link in turn and undrains them again, so stub
// roots (a switch whose one usable link leads to a stub) and unreachable
// stubs occur. At every point EvaluateInto must equal referenceEvaluate over
// the spec paths, Availability, on a fresh workspace before it and on its
// workspace after it, must return the reference's availability bit for
// bit, and every structure must hold the spec's path counts
// (checkStructures).
func TestStubAndMultiHomingEdgeCases(t *testing.T) {
	net := edgeCaseNet()
	r := NewRouter(net, nil)
	var tms []TrafficMatrix
	for _, gbps := range []float64{1, 30} {
		tm := TrafficMatrix{Name: "all-pairs"}
		for _, s := range net.Devices {
			for _, d := range net.Devices {
				if s != d {
					tm.Demands = append(tm.Demands, Demand{Src: s.ID, Dst: d.ID, Gbps: gbps})
				}
			}
		}
		tms = append(tms, tm)
	}
	check := func(ctx string) {
		t.Helper()
		for _, tm := range tms {
			var fresh, ws Workspace
			first := r.Availability(&fresh, tm)
			want := referenceEvaluate(net, tm, specMatrixPaths(r, tm))
			if got := r.EvaluateInto(&ws, tm); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %.0f Gbps: engine %v != per-pair reference %v", ctx, tm.Demands[0].Gbps, got, want)
			}
			bits := math.Float64bits(want.Availability())
			if after := r.Availability(&ws, tm); math.Float64bits(first) != bits || math.Float64bits(after) != bits {
				t.Fatalf("%s, %.0f Gbps: Availability %v before EvaluateInto, %v after, reference %v",
					ctx, tm.Demands[0].Gbps, first, after, want.Availability())
			}
		}
		checkStructures(t, r, ctx)
	}
	check("healthy")
	for _, l := range net.Links {
		r.Drain(l.ID)
		check(l.Name() + " drained alone")
		r.Undrain(l.ID)
		check(l.Name() + " undrained")
	}
	for _, l := range net.Links {
		r.Drain(l.ID)
		check("sweep, " + l.Name() + " drained")
	}
	for _, l := range net.Links {
		r.Undrain(l.ID)
		check("sweep, " + l.Name() + " undrained")
	}
}
