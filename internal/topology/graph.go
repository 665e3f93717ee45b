package topology

// This file holds graph helpers over the usable subgraph. Routing computes
// its own distance fields and tight-link sets; these helpers are the
// independent references its tests compare against. Both take an optional
// "usable" predicate so callers can compute over the healthy subgraph
// (failed or drained links excluded). A nil predicate means every link is
// usable.

// Usable filters links for graph computations.
type Usable func(*Link) bool

// HopDistances returns BFS hop counts from src to every device over usable
// links; unreachable devices get -1. Routing computes the same fields
// itself; its tests use this one as the independent reference.
//
//lint:allow deadexport the reference BFS of routing's specPaths and checkFieldsExact (TestDestRootedMatchesPerPairEnumerator, TestIncrementalInvalidationMatchesFullFlush)
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
//
//lint:allow deadexport TestIncrementalInvalidationMatchesFullFlush checks routing's tight-link bitsets against it
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
