package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Builder presets for the tests: a 40-switch jellyfish with fabric degree
// 8, a degree-8 lift-5 xpander (45 switches), and a 16-leaf 4-spine pod
// with 32 hosts per leaf and two 400G uplinks per leaf-spine pair.
func jellyfishConfig() JellyfishConfig {
	return JellyfishConfig{Switches: 40, FabricDegree: 8, HostsPerSwitch: 8, FabricGbps: 400, HostGbps: 100, Seed: 1}
}

func xpanderConfig() XpanderConfig {
	return XpanderConfig{Degree: 8, Lift: 5, HostsPerSwitch: 8, FabricGbps: 400, HostGbps: 100, Seed: 1}
}

func leafSpineConfig() LeafSpineConfig {
	return LeafSpineConfig{Leaves: 16, Spines: 4, HostsPerLeaf: 32, Uplinks: 2, FabricGbps: 400, HostGbps: 100}
}

// connected reports whether every device of n is reachable from device 0.
func connected(n *Network) bool {
	for _, d := range n.HopDistances(0, nil) {
		if d < 0 {
			return false
		}
	}
	return true
}

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		n, err := NewFatTree(DefaultFatTree(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		st := n.Stats()
		wantSwitches := 5 * k * k / 4
		wantHosts := k * k * k / 4
		if st.Switches != wantSwitches {
			t.Errorf("k=%d: switches=%d, want %d", k, st.Switches, wantSwitches)
		}
		if st.Hosts != wantHosts {
			t.Errorf("k=%d: hosts=%d, want %d", k, st.Hosts, wantHosts)
		}
		// Fabric links: edge-agg k/2*k/2 per pod * k pods + agg-core (k/2)^2 * k.
		wantFabric := k*k*k/4 + k*k*k/4
		if st.FabricLinks != wantFabric {
			t.Errorf("k=%d: fabric links=%d, want %d", k, st.FabricLinks, wantFabric)
		}
		if !connected(n) {
			t.Errorf("k=%d: fat-tree not connected", k)
		}
	}
}

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := NewFatTree(DefaultFatTree(k)); err == nil {
			t.Errorf("k=%d accepted, want error", k)
		}
	}
}

// The equal-cost path count between these hosts is asserted on the route
// engine, in routing's TestFatTreeCrossPodEqualCostPaths.
func TestFatTreeEqualShortestPathsAcrossPods(t *testing.T) {
	n, err := NewFatTree(DefaultFatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Hosts()
	src, dst := hosts[0].ID, hosts[len(hosts)-1].ID
	dist := n.HopDistances(src, nil)
	if dist[dst] != 6 {
		t.Fatalf("cross-pod host distance = %d, want 6 (host-edge-agg-core-agg-edge-host)", dist[dst])
	}
}

func TestLeafSpineStructure(t *testing.T) {
	cfg := leafSpineConfig()
	n, err := NewLeafSpine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Switches != cfg.Leaves+cfg.Spines {
		t.Errorf("switches=%d, want %d", st.Switches, cfg.Leaves+cfg.Spines)
	}
	if st.Hosts != cfg.Leaves*cfg.HostsPerLeaf {
		t.Errorf("hosts=%d", st.Hosts)
	}
	if st.FabricLinks != cfg.Leaves*cfg.Spines*cfg.Uplinks {
		t.Errorf("fabric links=%d, want %d", st.FabricLinks, cfg.Leaves*cfg.Spines*cfg.Uplinks)
	}
	// Each leaf should reach another leaf in exactly 2 hops.
	leaves := n.DevicesOfKind(LeafSwitch)
	dist := n.HopDistances(leaves[0].ID, nil)
	if dist[leaves[1].ID] != 2 {
		t.Errorf("leaf-leaf distance = %d, want 2", dist[leaves[1].ID])
	}
	// Redundant second uplinks are marked.
	var redundant int
	for _, l := range n.Links {
		if l.Redundant {
			redundant++
		}
	}
	if redundant != cfg.Leaves*cfg.Spines*(cfg.Uplinks-1) {
		t.Errorf("redundant links=%d", redundant)
	}
}

func TestLeafSpineRejectsBadConfig(t *testing.T) {
	if _, err := NewLeafSpine(LeafSpineConfig{Leaves: 0, Spines: 2}); err == nil {
		t.Error("accepted zero leaves")
	}
}

func TestJellyfishRegularity(t *testing.T) {
	cfg := jellyfishConfig()
	n, err := NewJellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range n.DevicesOfKind(LeafSwitch) {
		fabric := 0
		seen := map[DeviceID]bool{}
		for _, np := range n.Neighbors(sw.ID) {
			if np.Peer.Kind.IsSwitch() {
				fabric++
				if seen[np.Peer.ID] {
					t.Fatalf("parallel fabric edge at %s", sw.Name)
				}
				if np.Peer.ID == sw.ID {
					t.Fatalf("self loop at %s", sw.Name)
				}
				seen[np.Peer.ID] = true
			}
		}
		if fabric != cfg.FabricDegree {
			t.Fatalf("%s fabric degree = %d, want %d", sw.Name, fabric, cfg.FabricDegree)
		}
	}
	if !connected(n) {
		t.Fatal("jellyfish disconnected")
	}
}

func TestJellyfishDeterministicPerSeed(t *testing.T) {
	build := func(seed uint64) string {
		cfg := jellyfishConfig()
		cfg.Seed = seed
		n, err := NewJellyfish(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, l := range n.SwitchLinks() {
			s += l.Name() + ";"
		}
		return s
	}
	if build(5) != build(5) {
		t.Fatal("same seed produced different jellyfish wiring")
	}
	if build(5) == build(6) {
		t.Fatal("different seeds produced identical wiring")
	}
}

// Property: random regular graph construction yields simple r-regular graphs
// across a range of seeds and sizes.
func TestRandomRegularGraphProperty(t *testing.T) {
	f := func(seed uint64, nRaw, rRaw uint8) bool {
		n := 6 + int(nRaw%30)
		r := 3 + int(rRaw%4)
		if n*r%2 != 0 {
			n++
		}
		if r >= n {
			return true
		}
		edges, err := randomRegularGraph(n, r, seed)
		if err != nil {
			return false
		}
		deg := make([]int, n)
		seen := map[[2]int]bool{}
		for _, e := range edges {
			if e[0] == e[1] || seen[e] {
				return false
			}
			seen[e] = true
			deg[e[0]]++
			deg[e[1]]++
		}
		for _, d := range deg {
			if d != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestXpanderRegularity(t *testing.T) {
	cfg := xpanderConfig()
	n, err := NewXpander(cfg)
	if err != nil {
		t.Fatal(err)
	}
	switches := n.DevicesOfKind(LeafSwitch)
	if len(switches) != (cfg.Degree+1)*cfg.Lift {
		t.Fatalf("switches=%d, want %d", len(switches), (cfg.Degree+1)*cfg.Lift)
	}
	for _, sw := range switches {
		fabric := 0
		for _, np := range n.Neighbors(sw.ID) {
			if np.Peer.Kind.IsSwitch() {
				fabric++
			}
		}
		if fabric != cfg.Degree {
			t.Fatalf("%s degree=%d, want %d", sw.Name, fabric, cfg.Degree)
		}
	}
	if !connected(n) {
		t.Fatal("xpander disconnected")
	}
	// Copies of the same base vertex must never be adjacent (lift property).
	for _, l := range n.SwitchLinks() {
		a, b := l.A.Device, l.B.Device
		ai, bi := 0, 0
		if _, err := fmt.Sscanf(a.Name, "xp%d", &ai); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(b.Name, "xp%d", &bi); err != nil {
			t.Fatal(err)
		}
		if ai/cfg.Lift == bi/cfg.Lift {
			t.Fatalf("lift violation: %s adjacent to %s", a.Name, b.Name)
		}
	}
}

func TestAICluster(t *testing.T) {
	cfg := DefaultAICluster()
	n, err := NewAICluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Hosts != cfg.Servers {
		t.Errorf("hosts=%d", st.Hosts)
	}
	if st.Links != cfg.Servers*cfg.RailsPerServer {
		t.Errorf("links=%d, want %d", st.Links, cfg.Servers*cfg.RailsPerServer)
	}
	// Every rail switch has exactly one link to each server.
	for _, rail := range n.DevicesOfKind(RailSwitch) {
		if len(n.Neighbors(rail.ID)) != cfg.Servers {
			t.Errorf("%s has %d links", rail.Name, len(n.Neighbors(rail.ID)))
		}
	}
	if _, err := NewAICluster(AIClusterConfig{}); err == nil {
		t.Error("accepted empty config")
	}
}

func TestConnectPanicsOnBusyPort(t *testing.T) {
	n := New("tiny")
	a := n.AddDevice("a", LeafSwitch, Location{}, 1)
	b := n.AddDevice("b", LeafSwitch, Location{Rack: 1}, 2)
	n.ConnectAuto(a.Ports[0], b.Ports[0], 100)
	defer func() {
		if recover() == nil {
			t.Fatal("double-connect did not panic")
		}
	}()
	n.ConnectAuto(a.Ports[0], b.Ports[1], 100)
}

func TestCableClassSelection(t *testing.T) {
	cases := []struct {
		len, gbps float64
		want      CableClass
	}{
		{1, 100, DAC},
		{5, 100, AOC},
		{10, 100, FiberLC},
		{50, 100, FiberLC},
		{50, 400, FiberMPO},
		{120, 800, FiberMPO},
	}
	for _, c := range cases {
		if got := ClassForLength(c.len, c.gbps); got != c.want {
			t.Errorf("ClassForLength(%g, %g) = %v, want %v", c.len, c.gbps, got, c.want)
		}
	}
	if got := FiberMPO.DefaultCores(800); got != 8 {
		t.Errorf("800G MPO cores = %d, want 8", got)
	}
	if got := FiberLC.DefaultCores(100); got != 1 {
		t.Errorf("LC cores = %d, want 1", got)
	}
	if got := DAC.DefaultCores(100); got != 0 {
		t.Errorf("DAC cores = %d, want 0", got)
	}
	if !FiberMPO.NeedsTransceiver() || DAC.NeedsTransceiver() {
		t.Error("NeedsTransceiver misclassified")
	}
}

func TestTransceiversOnlyOnSeparableLinks(t *testing.T) {
	n, err := NewLeafSpine(leafSpineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range n.Links {
		wantXcvr := l.Cable.Class.NeedsTransceiver()
		hasXcvr := l.A.Xcvr != nil && l.B.Xcvr != nil
		if wantXcvr != hasXcvr {
			t.Fatalf("%s: class %v, xcvr presence %v", l.Name(), l.Cable.Class, hasXcvr)
		}
		if l.Cable.Class == FiberMPO && !l.Cable.APC {
			t.Fatalf("%s: MPO cable without APC flag", l.Name())
		}
	}
}

func TestPortGeometryAndNeighborhood(t *testing.T) {
	n, err := NewLeafSpine(leafSpineConfig())
	if err != nil {
		t.Fatal(err)
	}
	leaf := n.DevicesOfKind(LeafSwitch)[0]
	p0, p1 := leaf.Ports[0], leaf.Ports[1]
	d := n.Layout.PortPoint(p0).Dist(n.Layout.PortPoint(p1))
	if d <= 0 || d > 0.05 {
		t.Fatalf("adjacent port distance = %gm", d)
	}
	near := n.PortsNear(p0, 0.10)
	if len(near) == 0 {
		t.Fatal("no neighbors found next to a dense ToR port")
	}
	for _, q := range near {
		if q == p0 {
			t.Fatal("PortsNear returned the port itself")
		}
		if q.Link == nil {
			t.Fatal("PortsNear returned an unconnected port")
		}
	}
	if n.OcclusionAt(p0) != len(near) {
		t.Fatal("OcclusionAt disagrees with PortsNear(0.10)")
	}
}

func TestTraySharingAndCableLength(t *testing.T) {
	n, err := NewLeafSpine(leafSpineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A leaf-spine link crosses rows, so it must occupy tray segments and
	// share them with other uplinks.
	var fabric *Link
	for _, l := range n.SwitchLinks() {
		fabric = l
		break
	}
	if len(fabric.Cable.TraySegments) == 0 {
		t.Fatal("cross-row cable has no tray segments")
	}
	if n.Layout.TrayOccupancy(fabric) < 2 {
		t.Fatal("fabric cable shares no tray capacity")
	}
	sharing := n.LinksSharingTray(fabric)
	if len(sharing) == 0 {
		t.Fatal("fabric cable shares tray with no other link")
	}
	for _, l := range sharing {
		if l.ID == fabric.ID {
			t.Fatal("LinksSharingTray returned the link itself")
		}
	}
	// In-rack host link: short, no tray.
	var hostLink *Link
	for _, l := range n.Links {
		if !l.A.Device.Kind.IsSwitch() || !l.B.Device.Kind.IsSwitch() {
			hostLink = l
			break
		}
	}
	if len(hostLink.Cable.TraySegments) != 0 {
		t.Fatal("in-rack cable occupies tray")
	}
	if hostLink.Cable.LengthM <= 0 || hostLink.Cable.LengthM > 5 {
		t.Fatalf("in-rack cable length = %gm", hostLink.Cable.LengthM)
	}
	if fabric.Cable.LengthM <= hostLink.Cable.LengthM {
		t.Fatal("cross-row cable not longer than in-rack cable")
	}
}

func TestTravelDistance(t *testing.T) {
	ly := NewLayout(DefaultLayoutSpec())
	a := Location{Row: 1, Rack: 3}
	b := Location{Row: 1, Rack: 7}
	if d := ly.TravelDistanceM(a, b); d != 4*ly.Spec.RackWidthM {
		t.Fatalf("same-row travel = %g", d)
	}
	c := Location{Row: 3, Rack: 2}
	want := (3+2)*ly.Spec.RackWidthM + 2*ly.Spec.AislePitchM
	if d := ly.TravelDistanceM(a, c); d != want {
		t.Fatalf("cross-row travel = %g, want %g", d, want)
	}
	if ly.TravelDistanceM(a, a) != 0 {
		t.Fatal("self travel != 0")
	}
}

func TestStatsAndStrings(t *testing.T) {
	n, err := NewLeafSpine(LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2, Uplinks: 1, FabricGbps: 400, HostGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Devices != st.Switches+st.Hosts {
		t.Error("device count mismatch")
	}
	if st.TotalGbps <= 0 {
		t.Error("zero total capacity")
	}
	l := n.Links[0]
	if l.Name() == "" || l.A.Name() == "" {
		t.Error("empty names")
	}
	if LeafSwitch.String() != "leaf" || Server.String() != "server" {
		t.Error("kind names")
	}
	if DeviceKind(99).String() == "" {
		t.Error("unknown kind String empty")
	}
	if CableClass(99).String() == "" {
		t.Error("unknown class String empty")
	}
	if Front.String() != "front" || Back.String() != "back" {
		t.Error("face names")
	}
	loc := Location{Row: 1, Rack: 2, RU: 3}
	if loc.String() != "r1/s2/u3" {
		t.Errorf("loc = %s", loc)
	}
	var nilX *Transceiver
	if nilX.String() != "<none>" {
		t.Error("nil transceiver String")
	}
	seg := SegmentID{Row: 2, Slot: 5}
	if seg.String() != "tray/r2/s5" {
		t.Errorf("segment = %s", seg)
	}
	if (SegmentID{Row: 1, Cross: true}).String() != "xtray/r1" {
		t.Error("cross segment name")
	}
}
