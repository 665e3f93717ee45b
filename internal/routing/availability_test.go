package routing

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/topology"
)

// atCapacity is one demand from the first host to its first switch at
// exactly the capacity of the link between them: that link's load equals
// its capacity, and no other link carries anything.
func atCapacity(net *topology.Network) TrafficMatrix {
	h := net.Hosts()[0]
	np := net.Neighbors(h.ID)[0]
	return TrafficMatrix{Name: "at-capacity", Demands: []Demand{{Src: h.ID, Dst: np.Peer.ID, Gbps: np.Link.GbpsCap}}}
}

// incast sends from every other host to the first one, factor times the
// capacity of the first host's first link in total: a single-homed sink's
// tail alone overloads, while every sender's link stays light.
func incast(net *topology.Network, factor float64) TrafficMatrix {
	hosts := net.Hosts()
	sink := hosts[0].ID
	rate := factor * net.Neighbors(sink)[0].Link.GbpsCap / float64(len(hosts)-1)
	tm := TrafficMatrix{Name: "incast"}
	for _, h := range hosts[1:] {
		tm.Demands = append(tm.Demands, Demand{Src: h.ID, Dst: sink, Gbps: rate})
	}
	return tm
}

// Availability must return EvaluateInto(...).Availability()'s bits at every
// point of randomized drain/undrain and flap-down/up sequences over every
// link of each buildTopo family, and of a k=4 fat-tree whose fabric links
// are no faster than its host links. The matrices span the bound's cases:
// light (2.5% of host injection, the daily sample's load), busy (45%,
// where drains overload the thin fat-tree's fabric links while host links
// keep headroom), host links at capacity (the uniform matrix at half
// injection, and one demand at exactly a link's capacity), an incast whose
// sink's tail alone overloads, and full injection. Each point is checked
// with a fresh workspace and on the workspace EvaluateInto has just used.
func TestAvailabilityMatchesEvaluate(t *testing.T) {
	thin, err := topology.NewFatTree(topology.FatTreeConfig{K: 4, FabricGbps: 100, HostGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander", "aicluster", "fattree-thin"} {
		net := thin
		if kind != "fattree-thin" {
			net = buildTopo(t, kind)
		}
		down := map[topology.LinkID]bool{}
		r := NewRouter(net, func(id topology.LinkID) bool { return !down[id] })
		full := hostInjection(net)
		tms := []TrafficMatrix{
			UniformMatrix(net, full/40),
			UniformMatrix(net, 0.45*full),
			UniformMatrix(net, full/2),
			atCapacity(net),
			incast(net, 1.5),
			UniformMatrix(net, full),
		}
		rng := rand.New(rand.NewPCG(uint64(len(net.Links)), 0xa7a1))
		var fresh, shared Workspace
		for step := 0; step < 30; step++ {
			for _, tm := range tms {
				got := r.Availability(&fresh, tm)
				want := r.EvaluateInto(&shared, tm).Availability()
				again := r.Availability(&shared, tm)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(again) != math.Float64bits(want) {
					t.Fatalf("%s step %d %s %.1f Gbps: Availability %v (after EvaluateInto %v) != EvaluateInto %v",
						kind, step, tm.Name, tm.TotalGbps(), got, again, want)
				}
			}
			l := net.Links[rng.IntN(len(net.Links))]
			switch rng.IntN(4) {
			case 0:
				r.Drain(l.ID)
			case 1:
				r.Undrain(l.ID)
			case 2: // fault onset or flap-down
				down[l.ID] = true
				r.InvalidateLink(l.ID)
			case 3: // repair or flap-up
				down[l.ID] = false
				r.InvalidateLink(l.ID)
			}
		}
	}
}

// On the healthy fat-tree the bound certifies the light uniform matrix —
// the daily sample — and rejects full injection, where every host link
// carries twice its capacity. A warm call allocates nothing either way.
func TestAvailabilityBoundCertifiesLightLoad(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	light := UniformMatrix(net, hostInjection(net)/40)
	full := UniformMatrix(net, hostInjection(net))
	var ws Workspace
	for _, c := range []struct {
		tm      TrafficMatrix
		certify bool
	}{{light, true}, {full, false}} {
		if _, ok := r.boundedAvailability(&ws, c.tm); ok != c.certify {
			t.Fatalf("%.0f Gbps: bound certified %v, want %v", c.tm.TotalGbps(), ok, c.certify)
		}
		r.Availability(&ws, c.tm) // warm the fallback's buffers too
		if allocs := testing.AllocsPerRun(50, func() { r.Availability(&ws, c.tm) }); allocs != 0 {
			t.Fatalf("%.0f Gbps: warm Availability allocated %.1f/op, want 0", c.tm.TotalGbps(), allocs)
		}
	}
}

// The propagated load bound dominates the load pass. On the four studied
// fabric families, and on a k=4 fat-tree whose fabric links are no faster
// than its host links, at randomized drains of fabric and host links, the
// bound the pass leaves in the workspace must be at least every link's
// EvaluateInto load × (1 − 2^-40) at the light (2.5% of host injection) and
// busy (45%) loads. At those loads no host link carries more than 90% of
// its capacity, so the pass never stops early and the bound is whole; on
// the thin fat-tree, drains overload fabric links, so the final check
// rejects bounds that are complete. At every load, full injection included,
// Availability must never certify a matrix whose MaxUtil exceeds 1.
func TestAvailabilityBoundDominatesLoads(t *testing.T) {
	thin, err := topology.NewFatTree(topology.FatTreeConfig{K: 4, FabricGbps: 100, HostGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander", "fattree-thin"} {
		net := thin
		if kind != "fattree-thin" {
			net = buildTopo(t, kind)
		}
		r := NewRouter(net, nil)
		full := hostInjection(net)
		rng := rand.New(rand.NewPCG(uint64(len(net.Links)), 0xb0d))
		var bws, ews Workspace
		for step := 0; step < 20; step++ {
			for li, tm := range []TrafficMatrix{UniformMatrix(net, full/40), UniformMatrix(net, 0.45*full), UniformMatrix(net, full)} {
				_, certified := r.boundedAvailability(&bws, tm)
				a := r.EvaluateInto(&ews, tm)
				if certified && a.MaxUtil > 1 {
					t.Fatalf("%s step %d %.0f Gbps: bound certified a matrix with MaxUtil %v", kind, step, tm.TotalGbps(), a.MaxUtil)
				}
				if li == 2 {
					continue // the pass may stop early
				}
				for id, load := range a.LinkLoad {
					if b := bws.linkLoad[id]; b < load*(1-0x1p-40) {
						t.Fatalf("%s step %d %.0f Gbps: link %d bound %v < load %v", kind, step, tm.TotalGbps(), id, b, load)
					}
				}
			}
			l := net.Links[rng.IntN(len(net.Links))]
			if r.Drained(l.ID) {
				r.Undrain(l.ID)
			} else if drainedCount(r) < 6 {
				r.Drain(l.ID)
			}
		}
	}
}
