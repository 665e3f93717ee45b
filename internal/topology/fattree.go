package topology

import "fmt"

// FatTreeConfig parameterizes NewFatTree.
type FatTreeConfig struct {
	K          int     // arity; must be even and >= 2
	FabricGbps float64 // switch-to-switch link speed
	HostGbps   float64 // server uplink speed
}

// DefaultFatTree returns a k=4 fat-tree with 400G fabric and 100G hosts.
func DefaultFatTree(k int) FatTreeConfig {
	return FatTreeConfig{K: k, FabricGbps: 400, HostGbps: 100}
}

// NewFatTree builds the classic k-ary fat-tree: k pods, each with k/2 edge
// (leaf) and k/2 aggregation switches, (k/2)^2 core switches, and k^3/4
// servers. Each pod occupies its own row; the core switches live in row 0.
func NewFatTree(cfg FatTreeConfig) (*Network, error) {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity k=%d must be even and >= 2", k)
	}
	half := k / 2
	n := New(fmt.Sprintf("fattree-k%d", k))

	// Core row: (k/2)^2 cores, 4 per rack.
	cores := make([]*Device, half*half)
	for i := range cores {
		loc := Location{Row: 0, Rack: i / 4, RU: 40 - (i%4)*2, Face: Back}
		cores[i] = n.AddDevice(fmt.Sprintf("core%d", i), CoreSwitch, loc, k)
	}

	for p := 0; p < k; p++ {
		row := p + 1
		// Aggregation switches at the head of the pod row.
		aggs := make([]*Device, half)
		for a := range aggs {
			loc := Location{Row: row, Rack: 0, RU: 40 - a*2, Face: Back}
			aggs[a] = n.AddDevice(fmt.Sprintf("pod%d-agg%d", p, a), AggSwitch, loc, k)
		}
		// Edge switches, one per rack, with their servers below them.
		for e := 0; e < half; e++ {
			rack := e + 1
			leaf := n.AddDevice(fmt.Sprintf("pod%d-edge%d", p, e), LeafSwitch,
				Location{Row: row, Rack: rack, RU: 42, Face: Back}, k)
			for s := 0; s < half; s++ {
				srv := n.AddDevice(fmt.Sprintf("pod%d-edge%d-srv%d", p, e, s), Server,
					Location{Row: row, Rack: rack, RU: 2 + s*2, Face: Back}, 1)
				n.ConnectAuto(n.FreePort(srv), n.FreePort(leaf), cfg.HostGbps)
			}
			for a := 0; a < half; a++ {
				n.ConnectAuto(n.FreePort(leaf), n.FreePort(aggs[a]), cfg.FabricGbps)
			}
		}
		// Aggregation to core: agg a connects to cores [a*half, (a+1)*half).
		for a := 0; a < half; a++ {
			for h := 0; h < half; h++ {
				n.ConnectAuto(n.FreePort(aggs[a]), n.FreePort(cores[a*half+h]), cfg.FabricGbps)
			}
		}
	}
	return n, nil
}

// LeafSpineConfig parameterizes NewLeafSpine.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	Uplinks      int     // parallel uplinks from each leaf to each spine
	FabricGbps   float64 // per uplink
	HostGbps     float64
}

// NewLeafSpine builds a two-tier leaf-spine fabric: every leaf (one per
// rack) connects to every spine with cfg.Uplinks parallel links. Leaves and
// their hosts fill rows of 8 racks; spines sit end-of-row (racks 8+) spread
// round-robin across the leaf rows, the way mid-scale deployments place
// them to keep uplink runs short and trays uncongested.
func NewLeafSpine(cfg LeafSpineConfig) (*Network, error) {
	if cfg.Leaves <= 0 || cfg.Spines <= 0 {
		return nil, fmt.Errorf("topology: leaf-spine needs leaves>0 and spines>0, got %d/%d", cfg.Leaves, cfg.Spines)
	}
	if cfg.Uplinks <= 0 {
		cfg.Uplinks = 1
	}
	n := New(fmt.Sprintf("leafspine-%dx%d", cfg.Leaves, cfg.Spines))

	const racksPerRow = 8
	rows := (cfg.Leaves + racksPerRow - 1) / racksPerRow
	spines := make([]*Device, cfg.Spines)
	spinePorts := cfg.Leaves * cfg.Uplinks
	for i := range spines {
		loc := Location{
			Row:  1 + i%rows,
			Rack: racksPerRow + i/rows,
			RU:   40, Face: Back,
		}
		spines[i] = n.AddDevice(fmt.Sprintf("spine%d", i), SpineSwitch, loc, spinePorts)
	}
	for l := 0; l < cfg.Leaves; l++ {
		row := 1 + l/racksPerRow
		rack := l % racksPerRow
		leaf := n.AddDevice(fmt.Sprintf("leaf%d", l), LeafSwitch,
			Location{Row: row, Rack: rack, RU: 42, Face: Back},
			cfg.HostsPerLeaf+cfg.Spines*cfg.Uplinks)
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			srv := n.AddDevice(fmt.Sprintf("leaf%d-srv%d", l, h), Server,
				Location{Row: row, Rack: rack, RU: 1 + h, Face: Back}, 1)
			n.ConnectAuto(n.FreePort(srv), n.FreePort(leaf), cfg.HostGbps)
		}
		for s := 0; s < cfg.Spines; s++ {
			for u := 0; u < cfg.Uplinks; u++ {
				link := n.ConnectAuto(n.FreePort(leaf), n.FreePort(spines[s]), cfg.FabricGbps)
				if u > 0 {
					link.Redundant = true
				}
			}
		}
	}
	return n, nil
}
