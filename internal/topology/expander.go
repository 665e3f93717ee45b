package topology

import (
	"fmt"
	"math/rand/v2"
)

// JellyfishConfig parameterizes NewJellyfish.
type JellyfishConfig struct {
	Switches       int
	FabricDegree   int // fabric ports per switch used for the random graph
	HostsPerSwitch int
	FabricGbps     float64
	HostGbps       float64
	Seed           uint64
}

// NewJellyfish builds a Jellyfish fabric (Singla et al., NSDI'12): switches
// wired as a random regular graph. The construction uses stub matching with
// deterministic edge-swap fixups, so the same seed yields the same wiring.
//
// Jellyfish is the paper's canonical example (§4) of a topology whose
// throughput is excellent but whose irregular wiring loom makes it hard to
// deploy and maintain by hand — exactly what the self-maintainability
// experiments quantify.
func NewJellyfish(cfg JellyfishConfig) (*Network, error) {
	N, r := cfg.Switches, cfg.FabricDegree
	if N < 2 || r < 1 || r >= N {
		return nil, fmt.Errorf("topology: jellyfish needs 2<=switches and 1<=degree<switches, got N=%d r=%d", N, r)
	}
	if N*r%2 != 0 {
		return nil, fmt.Errorf("topology: jellyfish N*r=%d*%d must be even", N, r)
	}
	pairs, err := randomRegularGraph(N, r, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := New(fmt.Sprintf("jellyfish-n%d-r%d", N, r))
	switches := placeTorRow(n, "jf", N, r+cfg.HostsPerSwitch)
	addHosts(n, switches, cfg.HostsPerSwitch, cfg.HostGbps)
	for _, e := range pairs {
		n.ConnectAuto(n.FreePort(switches[e[0]]), n.FreePort(switches[e[1]]), cfg.FabricGbps)
	}
	return n, nil
}

// XpanderConfig parameterizes NewXpander.
type XpanderConfig struct {
	Degree         int // fabric degree d; the base graph is K_{d+1}
	Lift           int // lift factor: switches = (d+1)*Lift
	HostsPerSwitch int
	FabricGbps     float64
	HostGbps       float64
	Seed           uint64
}

// NewXpander builds an Xpander fabric (Valadarsky et al., CoNEXT'16) by
// random k-lifting of the complete graph K_{d+1}: each vertex becomes Lift
// copies and each base edge becomes a random perfect matching between the
// two copy groups. The result is d-regular with (d+1)*Lift switches.
func NewXpander(cfg XpanderConfig) (*Network, error) {
	d, k := cfg.Degree, cfg.Lift
	if d < 2 || k < 1 {
		return nil, fmt.Errorf("topology: xpander needs degree>=2 and lift>=1, got d=%d k=%d", d, k)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9a7e))
	N := (d + 1) * k
	n := New(fmt.Sprintf("xpander-d%d-k%d", d, k))
	switches := placeTorRow(n, "xp", N, d+cfg.HostsPerSwitch)
	addHosts(n, switches, cfg.HostsPerSwitch, cfg.HostGbps)

	idx := func(base, copy int) int { return base*k + copy }
	for u := 0; u <= d; u++ {
		for v := u + 1; v <= d; v++ {
			perm := rng.Perm(k)
			for c := 0; c < k; c++ {
				a, b := switches[idx(u, c)], switches[idx(v, perm[c])]
				n.ConnectAuto(n.FreePort(a), n.FreePort(b), cfg.FabricGbps)
			}
		}
	}
	return n, nil
}

// randomRegularGraph returns the edge list of a simple r-regular graph on
// nodes 0..n-1 via stub matching with edge-swap repair.
func randomRegularGraph(n, r int, seed uint64) ([][2]int, error) {
	rng := rand.New(rand.NewPCG(seed, 0x1e11f))
	type edge = [2]int
	norm := func(a, b int) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	for attempt := 0; attempt < 100; attempt++ {
		stubs := make([]int, 0, n*r)
		for v := 0; v < n; v++ {
			for i := 0; i < r; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		have := make(map[edge]bool, n*r/2)
		edges := make([]edge, 0, n*r/2)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			a, b := stubs[i], stubs[i+1]
			e := norm(a, b)
			if a == b || have[e] {
				// Try to repair by swapping with a previous edge.
				repaired := false
				for try := 0; try < 200 && len(edges) > 0; try++ {
					j := rng.IntN(len(edges))
					c, d := edges[j][0], edges[j][1]
					// Swap partners: (a,c) and (b,d).
					e1, e2 := norm(a, c), norm(b, d)
					if a != c && b != d && !have[e1] && !have[e2] && e1 != e2 {
						delete(have, edges[j])
						edges[j] = e1
						have[e1] = true
						e = e2
						repaired = true
						break
					}
				}
				if !repaired {
					ok = false
					break
				}
			}
			have[e] = true
			edges = append(edges, e)
		}
		if ok {
			return edges, nil
		}
	}
	return nil, fmt.Errorf("topology: failed to construct %d-regular graph on %d nodes", r, n)
}

// placeTorRow places N top-of-rack switches, one per rack, across rows of
// eight racks, and returns them.
func placeTorRow(n *Network, prefix string, N, ports int) []*Device {
	const racksPerRow = 8
	out := make([]*Device, N)
	for i := range out {
		loc := Location{Row: i / racksPerRow, Rack: i % racksPerRow, RU: 42, Face: Back}
		out[i] = n.AddDevice(fmt.Sprintf("%s%d", prefix, i), LeafSwitch, loc, ports)
	}
	return out
}

// addHosts attaches h servers to each switch at its rack.
func addHosts(n *Network, switches []*Device, h int, gbps float64) {
	for _, sw := range switches {
		for s := 0; s < h; s++ {
			loc := sw.Loc
			loc.RU = 1 + s*2
			srv := n.AddDevice(fmt.Sprintf("%s-srv%d", sw.Name, s), Server, loc, 1)
			n.ConnectAuto(n.FreePort(srv), n.FreePort(sw), gbps)
		}
	}
}

// AIClusterConfig parameterizes NewAICluster.
type AIClusterConfig struct {
	Servers        int // GPU servers
	RailsPerServer int // GPUs/NICs per server, one rail each
	RailGbps       float64
}

// DefaultAICluster returns a 64-server, 8-rail (512-GPU) training pod.
func DefaultAICluster() AIClusterConfig {
	return AIClusterConfig{Servers: 64, RailsPerServer: 8, RailGbps: 400}
}

// NewAICluster builds a rail-optimized GPU training fabric: every server
// has one NIC per rail, and rail switch r connects NIC r of every server.
// A single rail link failure strands its GPU's bandwidth, which is the
// paper's motivating AI-cluster dilemma (§1): redundancy per rail is
// unaffordable, so repair speed is what bounds lost GPU-hours.
func NewAICluster(cfg AIClusterConfig) (*Network, error) {
	if cfg.Servers <= 0 || cfg.RailsPerServer <= 0 {
		return nil, fmt.Errorf("topology: ai cluster needs servers>0 and rails>0, got %d/%d", cfg.Servers, cfg.RailsPerServer)
	}
	n := New(fmt.Sprintf("aicluster-%dx%d", cfg.Servers, cfg.RailsPerServer))
	rails := make([]*Device, cfg.RailsPerServer)
	for r := range rails {
		loc := Location{Row: 0, Rack: r / 2, RU: 40 - (r%2)*2, Face: Back}
		rails[r] = n.AddDevice(fmt.Sprintf("rail%d", r), RailSwitch, loc, cfg.Servers)
	}
	const serversPerRack = 4
	for s := 0; s < cfg.Servers; s++ {
		rack := s % 8
		row := 1 + s/(8*serversPerRack)
		ru := 2 + (s/8%serversPerRack)*10
		srv := n.AddDevice(fmt.Sprintf("gpusrv%d", s), GPUServer,
			Location{Row: row, Rack: rack, RU: ru, Face: Back}, cfg.RailsPerServer)
		for r := 0; r < cfg.RailsPerServer; r++ {
			n.ConnectAuto(srv.Ports[r], n.FreePort(rails[r]), cfg.RailGbps)
		}
	}
	return n, nil
}
