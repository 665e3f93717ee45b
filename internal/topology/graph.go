package topology

// This file implements the graph algorithms the routing and maintainability
// layers need. All of them take an optional "usable" predicate so callers
// can compute over the healthy subgraph (failed or drained links excluded).
// A nil predicate means every link is usable.

// Usable filters links for graph computations.
type Usable func(*Link) bool

func (n *Network) usableAdj(d DeviceID, ok Usable) []LinkPeer {
	if ok == nil {
		return n.adj[d]
	}
	entries := n.adj[d]
	out := make([]LinkPeer, 0, len(entries))
	for _, e := range entries {
		if ok(e.Link) {
			out = append(out, e)
		}
	}
	return out
}

// HopDistances returns BFS hop counts from src to every device over usable
// links; unreachable devices get -1.
func (n *Network) HopDistances(src DeviceID, ok Usable) []int {
	dist := make([]int, len(n.Devices))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []DeviceID{src}
	for head := 0; head < len(queue); head++ {
		d := queue[head]
		for _, e := range n.adj[d] {
			if ok != nil && !ok(e.Link) {
				continue
			}
			p := e.Peer.ID
			if dist[p] < 0 {
				dist[p] = dist[d] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}

// ShortestPathLinks visits every usable link that lies on some shortest path
// toward the destination whose BFS field is dist — exactly the links whose
// state change can alter dist or the ECMP DAG built over it. A usable link is
// on a shortest path iff both endpoints are reachable and their distances
// differ by one ("tight" w.r.t. dist). Routing keeps the same set as a
// bitset beside each cached field, and its tests check the bitset against
// this function.
func (n *Network) ShortestPathLinks(dist []int, ok Usable, visit func(*Link)) {
	for _, l := range n.Links {
		if ok != nil && !ok(l) {
			continue
		}
		da, db := dist[l.A.Device.ID], dist[l.B.Device.ID]
		if da < 0 || db < 0 {
			continue
		}
		if da-db == 1 || db-da == 1 {
			visit(l)
		}
	}
}

// Path is a sequence of links from a source to a destination.
type Path []*Link

// Connected reports whether all devices are mutually reachable over usable
// links. An empty network is connected.
func (n *Network) Connected(ok Usable) bool {
	if len(n.Devices) == 0 {
		return true
	}
	dist := n.HopDistances(0, ok)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// EdgeDisjointPaths returns the number of edge-disjoint usable paths
// between src and dst (BFS augmenting paths on unit edge capacities, i.e.
// undirected max-flow). It is the link-level fault tolerance of the pair.
func (n *Network) EdgeDisjointPaths(src, dst DeviceID, ok Usable) int {
	if src == dst {
		return 0
	}
	used := make(map[LinkID]int8) // 0 free, +1 used A->B, -1 used B->A
	flow := 0
	for {
		// BFS for an augmenting path. Residual rule for undirected unit
		// edges: an unused edge can be crossed either way; a used edge can
		// only be crossed against its flow (cancelling it).
		prevLink := make([]*Link, len(n.Devices))
		prevDev := make([]DeviceID, len(n.Devices))
		seen := make([]bool, len(n.Devices))
		seen[src] = true
		queue := []DeviceID{src}
		found := false
	bfs:
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, e := range n.usableAdj(d, ok) {
				p := e.Peer.ID
				if seen[p] {
					continue
				}
				dir := int8(1)
				if e.Link.B.Device.ID == d {
					dir = -1
				}
				// Crossing d->p uses the edge in direction dir; allowed if
				// edge is free or currently carries flow in the opposite
				// direction.
				if used[e.Link.ID] == dir {
					continue
				}
				seen[p] = true
				prevLink[p] = e.Link
				prevDev[p] = d
				if p == dst {
					found = true
					break bfs
				}
				queue = append(queue, p)
			}
		}
		if !found {
			return flow
		}
		// Apply the augmenting path.
		for d := dst; d != src; d = prevDev[d] {
			l := prevLink[d]
			dir := int8(1)
			if l.B.Device.ID == prevDev[d] {
				dir = -1
			}
			if used[l.ID] == -dir {
				used[l.ID] = 0 // cancelled
			} else {
				used[l.ID] = dir
			}
		}
		flow++
	}
}

// PathStats summarizes shortest-path structure over the switch subgraph.
type PathStats struct {
	Diameter int
	AvgHops  float64
	Pairs    int
}

// SwitchPathStats computes hop-count statistics between all switch pairs
// over usable links. Unreachable pairs are excluded from AvgHops but force
// Diameter to -1 (disconnected).
func (n *Network) SwitchPathStats(ok Usable) PathStats {
	switches := make([]DeviceID, 0)
	for _, d := range n.Devices {
		if d.Kind.IsSwitch() {
			switches = append(switches, d.ID)
		}
	}
	var st PathStats
	var sum, count int
	for _, s := range switches {
		dist := n.HopDistances(s, ok)
		for _, t := range switches {
			if t == s {
				continue
			}
			if dist[t] < 0 {
				st.Diameter = -1
				continue
			}
			sum += dist[t]
			count++
			if st.Diameter >= 0 && dist[t] > st.Diameter {
				st.Diameter = dist[t]
			}
		}
	}
	st.Pairs = count
	if count > 0 {
		st.AvgHops = float64(sum) / float64(count)
	}
	return st
}

// BisectionGbps estimates worst-case bisection bandwidth over usable links
// by evaluating trials random balanced bipartitions of the switches and
// taking the minimum observed cut capacity. seed makes the estimate
// deterministic. For structured topologies the natural cut is also tried.
func (n *Network) BisectionGbps(trials int, seed uint64, ok Usable) float64 {
	switches := make([]*Device, 0)
	for _, d := range n.Devices {
		if d.Kind.IsSwitch() {
			switches = append(switches, d)
		}
	}
	if len(switches) < 2 {
		return 0
	}
	if trials <= 0 {
		trials = 50
	}
	cut := func(side map[DeviceID]bool) float64 {
		var c float64
		for _, l := range n.Links {
			if ok != nil && !ok(l) {
				continue
			}
			a, b := l.A.Device, l.B.Device
			if !a.Kind.IsSwitch() || !b.Kind.IsSwitch() {
				continue
			}
			if side[a.ID] != side[b.ID] {
				c += l.GbpsCap
			}
		}
		return c
	}
	// Natural split: first half vs second half in ID order.
	side := make(map[DeviceID]bool, len(switches))
	for i, d := range switches {
		side[d.ID] = i < len(switches)/2
	}
	best := cut(side)
	rng := newSplitMix(seed)
	idx := make([]int, len(switches))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		// Fisher-Yates with the local PRNG.
		for i := len(idx) - 1; i > 0; i-- {
			j := int(rng() % uint64(i+1))
			idx[i], idx[j] = idx[j], idx[i]
		}
		for pos, i := range idx {
			side[switches[i].ID] = pos < len(switches)/2
		}
		if c := cut(side); c < best {
			best = c
		}
	}
	return best
}

// newSplitMix returns a tiny deterministic PRNG (SplitMix64) for internal
// sampling that must not perturb any model stream.
func newSplitMix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
