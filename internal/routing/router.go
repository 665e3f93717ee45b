// Package routing is the network control plane of the simulation: ECMP
// flow-level routing over the healthy subgraph, administrative link drains
// (the hook the maintenance controller uses to move traffic away from
// hardware before robots touch it, §2), demand-satisfaction assessment, and
// the flap-to-tail-latency model (§1).
//
// Routing is evaluated at flow level: demands are split evenly over
// equal-cost shortest paths and per-link loads determine how much of each
// demand is satisfied. This is the standard fluid approximation used for
// topology studies; packet-level effects enter only through the latency
// model.
//
// Route state is stored densely by device and link ID, with no pointers for
// the garbage collector to scan. The router keeps its own adjacency: hop
// entries (far device, link) in a flat array with per-device offsets, in
// topology.Network.Neighbors order. A device with exactly one link (a stub:
// every server of the fat-tree, leaf-spine, Jellyfish and Xpander builds)
// can end a shortest path but never lie inside one, so the other devices'
// hop lists leave stubs out, and so does every root's state but the stub's
// own. Route state is keyed by attachment point: a destination with exactly
// one usable link is served by the structures of the link's far end (its
// root), with the link appended to every path as a tail; any other
// destination is its own root. Every cached BFS distance field sits in a
// per-root slot beside its BFS order and a bitset of the links tight toward
// the root (on some shortest path). One traversal of the field also gives
// each device's capped suffix count and its draws: the next hops it takes
// suffixes from, and how many from each. The destination-rooted arenas,
// written from the draws only for readers of suffixes, hold the int32 link
// IDs of transit devices' path suffixes toward the root, which EvaluateInto
// and LatencyModel.WorstPairLatency read as first-hop + suffix segments
// followed by the tail; they are the router's only representation of ECMP
// paths.
//
// EvaluateInto reads them once per run of consecutive demands with one
// source, one rate and one destination root, resolving each destination
// when the walk first meets it, so an evaluation reads the matrix once.
// Every link load and every total receives exactly the floating-point
// additions, in exactly the order, that per-demand evaluation gives it, so
// every sum is bit-identical; only their execution is cheaper. Long chains
// of one value (a run's first hop, the offered and satisfied totals) are
// computed in O(log c) integer steps by an exact kernel, addRepeated
// (sum.go): while a sum stays in one binade, each addition of the same value
// adds the same whole number of ulps. Short chains on distinct links are
// summed in independent registers.
//
// A link leaving the usable subgraph touches only the fields whose bitset
// holds it, and most of those are settled by an exact O(degree) test: if
// the link's farther endpoint keeps another next hop, no distance changes.
// A field whose endpoint lost its last one is evicted, not recomputed. A
// link joining the subgraph is resolved from its two endpoint distances per
// field, and a field it shortens is evicted too. A stub's link lies in no
// other root's state, so its transition touches only the stub's own. So no
// link transition runs a BFS: an evicted field is recomputed once, by the
// next evaluation that needs it, however many transitions came between.
// Every field whose ECMP DAG changes shelves its root's structure; the rest
// are validated lazily against epoch stamps. Invalidate remains as the
// full-flush fallback for bulk edits.
//
// Availability answers the one question the daily samples ask, the
// satisfied fraction, with EvaluateInto's bits. One pass over the runs sums
// the totals of the no-overload branch and the traffic entering each
// root's devices, which is then propagated down the draws into an upper
// bound on every link's load; when the bound keeps every link within
// capacity, that branch is provably the one EvaluateInto takes, and no load
// or suffix list is computed. Otherwise it falls back to EvaluateInto
// (availability.go).
//
// Traversals — root resolution, BFS, the tight-link bitsets and
// destination-rooted builds — read a usability snapshot, never HealthFn.
// Only InvalidateLink, Drain, Undrain and Invalidate refresh it.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// HealthFn reports whether a link is physically up (not Down and not being
// worked on). The fault injector's Observable view supplies this.
//
// The router samples it only when refreshing its usability snapshot: in
// InvalidateLink (and so Drain and Undrain) for one link, and in NewRouter
// and Invalidate for all of them. Route traversals read the snapshot, so a
// caller that changes what HealthFn returns must report the change through
// InvalidateLink, or call Invalidate after a bulk edit.
type HealthFn func(topology.LinkID) bool

// hop is one entry of the router's adjacency: the device at the far end of
// a link, and the link.
type hop struct {
	peer, link int32
}

// distEntry is one cached BFS distance field toward a root, its BFS order
// (the devices it reaches, in nondecreasing distance, root first), the
// bitset (indexed by link ID) of the usable links tight toward it — exactly
// the links whose loss can change the field or its ECMP DAG — and the cache
// epoch the field was computed under. Stubs other than the root are in
// none of them. A zero entry (nil dist) is an empty slot; the field, its
// order and its bitset are recycled together.
type distEntry struct {
	dist  []int32
	order []int32
	tight []uint64
	stamp uint64
}

// Router computes paths and loads over the currently usable subgraph.
type Router struct {
	net     *topology.Network
	health  HealthFn
	drained []bool

	// The router's adjacency: device d's hops are hops[adjOff[d]:adjOff[d+1]],
	// in Neighbors order. A stub's list holds its one link; any other
	// device's list leaves out its stub neighbours. stub holds each stub's
	// one hop (peer -1: not a stub), and stubPeer marks the devices some
	// stub hangs off: stub sources draw suffixes from them. capacity is each
	// link's GbpsCap.
	adjOff   []int32
	hops     []hop
	stub     []hop
	stubPeer []bool
	capacity []float64

	// distCache holds each root's distance field and tight-link bitset,
	// indexed by DeviceID. Every cached field is exact for the current
	// snapshot: transitions repair or evict fields eagerly, never
	// recomputing one, and only root structures go stale lazily. fields
	// counts the occupied slots: while it is zero (a router never
	// evaluated, like a fleet region's) transitions skip the slot scan.
	distCache []distEntry
	fields    int
	// lastUsable snapshots each link's usability as of the last (in)validation.
	// Every traversal reads it, and health transitions that do not change
	// usability (e.g. Healthy → Flapping, which still carries traffic) cost
	// nothing.
	lastUsable []bool
	// cacheEpoch stamps distance fields, and through them the destination
	// structures built over them; it advances on every effective
	// invalidation, so stale structures fail their stamp comparison instead
	// of needing eager eviction.
	cacheEpoch uint64

	freeDists []distEntry // recycled distance fields with their orders and bitsets

	// Destination-rooted engine state (destroot.go). route holds each
	// destination's root and tail as of the last evaluation that met it.
	// destCur holds each root's current suffix structure; destShelf is a
	// one-slot per-root parking spot for structures displaced by a subgraph
	// transition, restorable when the subgraph signature returns to their
	// build value (drain → undrain round trips restore for free).
	route       []destRoute
	destCur     []*destState
	destShelf   []*destState
	freeStates  []*destState
	transit     []bool // materialize's scratch
	destSeq     uint64
	subgraphSig uint64 // Zobrist hash of the usable non-stub link set
}

// NewRouter creates a router. health may be nil, meaning all links are
// physically up.
func NewRouter(net *topology.Network, health HealthFn) *Router {
	nd := len(net.Devices)
	r := &Router{
		net:        net,
		health:     health,
		drained:    make([]bool, len(net.Links)),
		adjOff:     make([]int32, nd+1),
		stub:       make([]hop, nd),
		stubPeer:   make([]bool, nd),
		capacity:   make([]float64, len(net.Links)),
		distCache:  make([]distEntry, nd),
		lastUsable: make([]bool, len(net.Links)),
		route:      make([]destRoute, nd),
		destCur:    make([]*destState, nd),
		destShelf:  make([]*destState, nd),
	}
	for d := range nd {
		r.stub[d] = hop{peer: -1, link: -1}
		if nb := net.Neighbors(topology.DeviceID(d)); len(nb) == 1 {
			r.stub[d] = hop{peer: int32(nb[0].Peer.ID), link: int32(nb[0].Link.ID)}
			r.stubPeer[nb[0].Peer.ID] = true
		}
	}
	for d := range nd {
		for _, np := range net.Neighbors(topology.DeviceID(d)) {
			if p := np.Peer.ID; r.isStub(int32(d)) || !r.isStub(int32(p)) {
				r.hops = append(r.hops, hop{peer: int32(p), link: int32(np.Link.ID)})
			}
		}
		r.adjOff[d+1] = int32(len(r.hops))
	}
	for i, l := range net.Links {
		r.lastUsable[i] = r.Usable(l)
		r.capacity[i] = l.GbpsCap
	}
	r.recomputeSubgraphSig()
	return r
}

// adj returns device d's hops.
func (r *Router) adj(d int32) []hop {
	return r.hops[r.adjOff[d]:r.adjOff[d+1]]
}

// isStub reports whether device d has exactly one link.
func (r *Router) isStub(d int32) bool { return r.stub[d].peer >= 0 }

// stubLink reports whether link l has a stub endpoint.
func (r *Router) stubLink(l *topology.Link) bool {
	return r.isStub(int32(l.A.Device.ID)) || r.isStub(int32(l.B.Device.ID))
}

// Usable reports whether a link carries traffic: physically up and not
// administratively drained. It evaluates HealthFn live; route traversals
// instead read the snapshot that InvalidateLink, Drain, Undrain and
// Invalidate refresh from this method (see HealthFn).
func (r *Router) Usable(l *topology.Link) bool {
	if r.drained[l.ID] {
		return false
	}
	if r.health == nil {
		return true
	}
	return r.health(l.ID)
}

// Drain removes the link from service administratively. Draining is the
// controller's impact-mitigation primitive: traffic shifts before physical
// work begins, so a touched cable carries nothing. Draining an already
// drained link is a no-op and does not advance the cache epoch.
func (r *Router) Drain(id topology.LinkID) {
	if r.drained[id] {
		return
	}
	r.drained[id] = true
	r.InvalidateLink(id)
}

// Undrain returns the link to service.
func (r *Router) Undrain(id topology.LinkID) {
	if !r.drained[id] {
		return
	}
	r.drained[id] = false
	r.InvalidateLink(id)
}

// Drained reports the administrative state.
func (r *Router) Drained(id topology.LinkID) bool { return r.drained[id] }

// Epoch returns the current cache epoch. It advances exactly when an
// invalidation changed the usable subgraph, so tests can assert that no-op
// transitions cost nothing.
func (r *Router) Epoch() uint64 { return r.cacheEpoch }

// InvalidateLink refreshes one link's usability snapshot after a state
// change (flap, drain, undrain, repair), updating only the cached state the
// change can affect:
//
//   - If the link's usability did not change (a Healthy→Flapping transition,
//     a drain of an already-down link), nothing is touched.
//   - If the link has a stub endpoint, it lies in no other root's state:
//     only each stub endpoint's own field and structures are discarded, with
//     no scan.
//   - If the link left the usable subgraph, only destinations whose tight
//     bitset holds it can change. An O(degree) test proves most of those
//     fields unchanged (ECMP redundancy); the rest are evicted, and the next
//     evaluation that needs one recomputes it.
//   - If the link joined the subgraph, a destination's field changes only if
//     the link bridges devices the field ranks ≥2 apart (an edge between
//     equidistant devices can never lie on a shortest path; one bridging a
//     single hop leaves all distances intact). For surviving fields the new
//     edge joins the ECMP DAG and the field's tight bitset.
//
// Either way, every root whose ECMP DAG may have changed shelves its
// destination-rooted structure; it is restored or rebuilt on next use. No
// transition runs a BFS, so a field is recomputed at most once between two
// evaluations, however many transitions evicted it.
func (r *Router) InvalidateLink(id topology.LinkID) {
	l := r.net.Links[id]
	u := r.Usable(l)
	if u == r.lastUsable[id] {
		return
	}
	r.lastUsable[id] = u
	r.cacheEpoch++
	if r.stubLink(l) {
		r.dropStub(l.A.Device.ID)
		r.dropStub(l.B.Device.ID)
		return
	}
	r.subgraphSig ^= destLinkSig(id) // toggle the link in/out of the Zobrist hash
	if !u {
		r.linkDown(l)
	} else {
		r.linkUp(l)
	}
}

// dropStub discards the field and both structures of d, if d is a stub: the
// root state its link's transition changes. The structures are recycled
// rather than shelved, because the subgraph signature leaves stub links out
// and could not tell their build state from the current one.
func (r *Router) dropStub(d topology.DeviceID) {
	if !r.isStub(int32(d)) {
		return
	}
	if r.distCache[d].dist != nil {
		r.evictDist(d)
	}
	for _, ds := range [2]*destState{r.destCur[d], r.destShelf[d]} {
		if ds != nil {
			r.freeStates = append(r.freeStates, ds)
		}
	}
	r.destCur[d], r.destShelf[d] = nil, nil
}

// linkDown handles link l leaving the usable subgraph. Roots are visited in
// ascending ID order; each field holding l as tight shelves its root's
// structure (its DAG lost an edge) and then either keeps its distances and
// stamp — dropping only l's tight bit — or, when l's farther endpoint lost
// its last next hop, is evicted. Nothing reads a field between two
// evaluations, so the next evaluation that needs it recomputes it, once,
// under that evaluation's epoch.
//
//selfmaint:hotpath
func (r *Router) linkDown(l *topology.Link) {
	id, a, b := l.ID, l.A.Device.ID, l.B.Device.ID
	for i := 0; r.fields > 0 && i < len(r.distCache); i++ {
		e := &r.distCache[i]
		if e.dist == nil || e.tight[id>>6]&(1<<(id&63)) == 0 {
			continue
		}
		root := topology.DeviceID(i)
		// The link was tight toward root, so root's ECMP DAG lost an edge
		// even when the distances below survive: shelve the root's structure
		// (an undrain restores it via the subgraph signature).
		r.shelveDest(root)
		far := a
		if e.dist[b] > e.dist[a] {
			far = b
		}
		if r.keepsNextHop(e.dist, int32(far)) {
			e.tight[id>>6] &^= 1 << (id & 63) // distances and stamp stand
			continue
		}
		// far's distance grows, so the field changes: evict it.
		r.evictDist(root)
	}
}

// keepsNextHop reports whether device u still has a usable neighbour one hop
// closer to the root of field dist. It is the exact survival test for
// the loss of a link tight toward that root: only the link's farther
// endpoint u descended over it, so if u keeps a next hop every device keeps
// one and, by induction on distance, no distance changes. If u has none, its
// distance grows. u is no stub, and no stub is a next hop of u: a root
// that is a stub is one hop from u only over a stub link.
//
//selfmaint:hotpath
func (r *Router) keepsNextHop(dist []int32, u int32) bool {
	for _, h := range r.adj(u) {
		if r.lastUsable[h.link] && dist[h.peer] == dist[u]-1 {
			return true
		}
	}
	return false
}

// linkUp handles link l (a↔b) joining the usable subgraph. Fields ranking
// the endpoints equal are untouched; fields ranking them ≥2 apart (or one
// side unreachable) shorten and are evicted. Fields ranking them exactly one
// apart keep their distances and order but gain a DAG edge: the link joins
// their tight bitset. Both kinds shelve their root's structure.
//
//selfmaint:hotpath
func (r *Router) linkUp(l *topology.Link) {
	id, a, b := l.ID, l.A.Device.ID, l.B.Device.ID
	for i := 0; r.fields > 0 && i < len(r.distCache); i++ {
		e := &r.distCache[i]
		if e.dist == nil {
			continue
		}
		da, db := e.dist[a], e.dist[b]
		if da == db {
			continue // equidistant (or both unreachable): never on a shortest path
		}
		// The root's DAG gains an edge (or its field shortens), so its
		// suffix structure retires to the shelf (an undrain round trip
		// restores the pre-drain one).
		root := topology.DeviceID(i)
		r.shelveDest(root)
		if da < 0 || db < 0 || da-db > 1 || db-da > 1 {
			r.evictDist(root) // the link shortens or newly connects routes to root
			continue
		}
		// |da-db| == 1: distances survive; the link is now tight toward root.
		e.tight[id>>6] |= 1 << (id & 63)
	}
}

// evictDist empties root's slot, recycling its field, order and bitset.
func (r *Router) evictDist(root topology.DeviceID) {
	r.freeDists = append(r.freeDists, r.distCache[root])
	r.distCache[root] = distEntry{}
	r.fields--
}

// Invalidate flushes every cached distance field and refreshes the whole
// usability snapshot from HealthFn, as after a bulk edit that reported no
// link through InvalidateLink. No production caller makes such edits —
// every transition goes through InvalidateLink — so it serves the routing
// tests as the full-flush reference that incremental invalidation must
// match.
//
//lint:allow deadexport TestIncrementalInvalidationMatchesFullFlush and TestDestRootedMatchesPerPairEnumerator full-flush their reference router with it
func (r *Router) Invalidate() {
	r.cacheEpoch++
	for root := range r.distCache {
		if r.distCache[root].dist != nil {
			r.evictDist(topology.DeviceID(root))
		}
	}
	for i, l := range r.net.Links {
		r.lastUsable[i] = r.Usable(l)
	}
	r.recomputeSubgraphSig()
	// Root structures are not flushed here: stale ones fail their stamp
	// comparison on next use (the fresh fields carry the new epoch), and
	// shelved ones stay restorable — the recomputed signature makes the
	// validity check exact even after bulk edits. A stub's structures
	// depend on its own link, which the signature leaves out, so they are
	// discarded. Roots are resolved afresh from the snapshot by every
	// evaluation.
	for d := range r.stub {
		r.dropStub(topology.DeviceID(d))
	}
}

// distEntryFor returns root's slot, filling it with the field toward root
// if it is empty. Caching per root is what makes evaluating thousands of
// demands cheap: one BFS serves every source of every destination the root
// serves.
//
//selfmaint:hotpath
func (r *Router) distEntryFor(root topology.DeviceID) *distEntry {
	e := &r.distCache[root]
	if e.dist == nil {
		r.fillDist(e)
		r.buildRoot(e, root, true, nil)
	}
	return e
}

// fillDist gives the empty slot e a field, an order and a bitset to compute
// into, recycled when the free list has them.
func (r *Router) fillDist(e *distEntry) {
	if n := len(r.freeDists); n > 0 {
		*e = r.freeDists[n-1]
		r.freeDists[n-1] = distEntry{}
		r.freeDists = r.freeDists[:n-1]
	} else {
		//lint:allow hotpathalloc free-list miss; the field is cached and recycled, steady state reuses buffers
		e.dist = make([]int32, len(r.net.Devices))
		for i := range e.dist {
			e.dist[i] = -1
		}
		//lint:allow hotpathalloc free-list miss; the order is recycled with its field
		e.order = make([]int32, 0, len(r.net.Devices))
		//lint:allow hotpathalloc free-list miss; the bitset is recycled with its field
		e.tight = make([]uint64, (len(r.net.Links)+63)/64)
	}
	r.fields++
}

// buildRoot traverses the field toward root once, in BFS order. With fresh
// set it first computes the field, over the usability snapshot and stamped
// with the current epoch: BFS distances (-1 unreachable), the order, and,
// in the same pass, the tight bitset — exactly the usable links on some
// shortest path toward root, the set topology.ShortestPathLinks visits over
// the subgraph without other stubs. A link outside the bitset can change
// state without changing the distances or the ECMP DAG. Without fresh, the
// field is the cached one, and the traversal walks its order, finding every
// device already placed. A slot's distances are -1 outside its order, so a
// fresh traversal resets only the devices the slot's last field reached.
//
// When a device is dequeued, every neighbour one hop closer already has its
// final distance and, into ds (if not nil), its final suffix count. So the
// same neighbour scan discovers the next level, records each tight link
// once, from its farther endpoint, and records the device's draws: the next
// hops it takes suffixes from, in adjacency order — the exact order the
// per-pair DFS descends — and how many from each, capped at maxPaths in
// all. Its suffix count is their sum. This preserves per-pair path lists
// exactly: a consumer takes at most maxPaths suffixes from any one
// downstream device, always its first ones.
//
// Stubs other than the root are left out: no hop list holds them. A root
// that is a stub reaches the field over its one link, unless its peer is a
// stub too; its peer's list leaves the root out, so the peer, the only
// device at distance 1, draws the root's one suffix here.
//
//selfmaint:hotpath
func (r *Router) buildRoot(e *distEntry, root topology.DeviceID, fresh bool, ds *destState) {
	dist, tight, usable := e.dist, e.tight, r.lastUsable
	if fresh {
		for _, x := range e.order {
			dist[x] = -1
		}
		clear(tight)
		dist[root] = 0
		e.order = append(e.order[:0], int32(root))
		e.stamp = r.cacheEpoch
		for _, h := range r.adj(int32(root)) {
			if usable[h.link] && !r.isStub(h.peer) && dist[h.peer] < 0 {
				dist[h.peer] = 1
				//lint:allow hotpathalloc never grows: fillDist gives the order room for every device
				e.order = append(e.order, h.peer)
			}
		}
	}
	var nodes []node
	var draws []draw
	if ds != nil {
		ds.reset(len(dist), root, e.stamp, r.subgraphSig)
		nodes, draws = ds.node, ds.draws
	}
	rootLink := r.stub[root].link // -1: the root is no stub
	hops, adjOff := r.hops, r.adjOff
	order := e.order
	for i := 1; i < len(order); i++ {
		x := order[i]
		k := dist[x]
		first, left := int32(len(draws)), int32(maxPaths)
		if k == 1 && rootLink >= 0 {
			tight[rootLink>>6] |= 1 << (rootLink & 63)
			if ds != nil {
				//lint:allow hotpathalloc draws growth on first use; the backing array is retained on the destState
				draws = append(draws, draw{peer: int32(root), link: rootLink, c: 1})
				left--
			}
		}
		for _, h := range hops[adjOff[x]:adjOff[x+1]] {
			if !usable[h.link] {
				continue
			}
			if p := h.peer; dist[p] < 0 {
				dist[p] = k + 1
				//lint:allow hotpathalloc never grows: fillDist gives the order room for every device
				order = append(order, p)
			} else if dist[p] == k-1 {
				tight[h.link>>6] |= 1 << (h.link & 63)
				if ds != nil && left > 0 {
					c := min(left, nodes[p].count)
					left -= c
					//lint:allow hotpathalloc draws growth on first use; the backing array is retained on the destState
					draws = append(draws, draw{peer: p, link: h.link, c: c})
				}
			}
		}
		if ds != nil {
			nodes[x] = node{count: maxPaths - left, plen: k, lo: first, hi: int32(len(draws))}
		}
	}
	e.order = order
	if ds != nil {
		ds.draws = draws
		ds.order = append(ds.order[:0], order...)
	}
}

// Assessment is the result of evaluating a traffic matrix.
type Assessment struct {
	OfferedGbps   float64
	SatisfiedGbps float64
	// PerDemand is the satisfaction fraction of each demand, aligned with
	// the evaluated matrix.
	PerDemand []float64
	// Unreachable counts demands with no usable path at all.
	Unreachable int
	// MaxUtil is the highest link load/capacity ratio (pre-clamping).
	MaxUtil float64
	// LinkLoad is the offered load per link in Gbps (index: LinkID).
	LinkLoad []float64
}

// Availability is the satisfied fraction of offered traffic, the paper's
// service-level lens on link failures.
func (a Assessment) Availability() float64 {
	if a.OfferedGbps == 0 {
		return 1
	}
	return a.SatisfiedGbps / a.OfferedGbps
}

// String renders a summary.
func (a Assessment) String() string {
	return fmt.Sprintf("offered %.0fG satisfied %.0fG (%.4f), unreachable %d, maxutil %.2f",
		a.OfferedGbps, a.SatisfiedGbps, a.Availability(), a.Unreachable, a.MaxUtil)
}

// Workspace holds the scratch buffers one traffic-matrix evaluation needs.
// A zero Workspace is ready to use; buffers grow to the fabric and matrix
// size on first evaluation and are retained, so steady-state assessment
// through EvaluateInto or Availability allocates nothing. Availability
// counts as an evaluation: it reuses the buffers an earlier Assessment's
// slices alias. A Workspace must not be shared across goroutines.
type Workspace struct {
	perDemand []float64
	linkLoad  []float64 // EvaluateInto's loads; Availability's load bound
	over      []float64
	runEnds   []int32 // the end of each run of the matrix, in order

	// Availability's entering totals: row i holds, for the i-th root the
	// call met, the traffic entering each device toward that root, T(x) in
	// availability.go. rowOf maps a root to its row plus one (0: none).
	// Both are all zero between calls.
	enters []float64
	rowOf  []int32
}

// EvaluateInto routes the matrix over the usable subgraph: each demand
// splits evenly across its equal-cost paths, and each demand's achieved
// rate is its offered rate divided by the worst overload factor along its
// paths — a one-shot approximation of proportional sharing under
// congestion. The returned Assessment's PerDemand and LinkLoad alias
// caller-owned ws buffers and are valid until the workspace's next
// evaluation. With warm caches it performs zero heap allocations.
//
// Path resolution runs on the destination-rooted engine (destroot.go): one
// shared suffix structure per root serves every source of every destination
// the root serves, in place of an independent DFS per pair. Demand (s,d)'s
// paths are read as segments: for each draw of s toward d's root — a next
// hop p, in adjacency order, and a count c — the first hop s→p followed by
// each of the first c of p's suffixes, and then d's tail, if it has one. A
// stub source has one segment, its link followed by all of its peer's
// suffixes. A source at the root has one path, the tail alone.
//
// Demands are evaluated run by run (see runEnd): the demands of a run share
// a source, a rate and a root, so they have the same paths up to their
// tails and the same share on each. Every link and every total receives
// exactly the additions, in exactly the order, that the per-pair paths
// give it; only the way they are executed differs, so the Assessment is
// byte-identical to the per-pair specification:
//
//   - Each first hop of a run takes c·m additions of one share, and the
//     offered and satisfied totals take stretches of equal values across
//     runs (the 186,192 offered rates of a uniform matrix on a k=12
//     fat-tree are one stretch). Long chains go through addRepeated, which
//     computes them exactly in O(log c) steps.
//   - Suffix positions take m additions each, summed in windows of up to
//     min(4, suffix length) independent registers (see addSuffixes), and a
//     run's tails, which no other path of the run crosses, n each, in pairs
//     of distinct links.
//   - The satisfaction pass reads the run boundaries the load pass stored.
//     When no link is overloaded every factor is 1, and a run's achieved
//     rate and satisfied fraction are computed once. Otherwise each path's
//     worst overload factor before the tail is taken once per run. A tail
//     factor no larger than every one of those changes no path's factor,
//     so it yields the run's base rate; a demand's achieved rate is
//     recomputed only when a larger tail factor differs from the previous
//     demand's.
//
//selfmaint:hotpath
func (r *Router) EvaluateInto(ws *Workspace, tm TrafficMatrix) Assessment {
	r.destSeq++
	nl := len(r.net.Links)
	ws.perDemand = resize(ws.perDemand, len(tm.Demands)) // every entry is written below
	ws.linkLoad = grow(ws.linkLoad, nl)
	ws.over = grow(ws.over, nl)
	ws.runEnds = ws.runEnds[:0]
	as := Assessment{
		PerDemand: ws.perDemand,
		LinkLoad:  ws.linkLoad,
	}
	load := as.LinkLoad
	var offered repeatSum
	var one [1]draw
	for i := 0; i < len(tm.Demands); {
		end := r.runEnd(tm.Demands, i, true)
		run := tm.Demands[i:end]
		i = end
		//lint:allow hotpathalloc grows to the matrix's run count once; the buffer is retained on the workspace
		ws.runEnds = append(ws.runEnds, int32(end))
		// A run's rates are equal (==); ±0 add alike to a total that starts
		// at +0, so the run adds its first rate len(run) times.
		offered.add(run[0].Gbps, len(run))
		ds, n, k, segs := r.paths(run[0], &one)
		if n == 0 {
			as.Unreachable += len(run)
			continue
		}
		share := run[0].Gbps / float64(n)
		r.addTails(load, run, share, n)
		m := len(run)
		for _, s := range segs {
			load[s.link] = addN(load[s.link], share, int(s.c)*m)
			st := ds.start[s.peer]
			addSuffixes(load, ds.arena[st:st+s.c*(k-1)], k-1, share, m)
		}
	}
	as.OfferedGbps = offered.sum()
	// Overload factors.
	for id, l := range load {
		cap := r.capacity[id]
		if cap <= 0 {
			continue
		}
		u := l / cap
		if u > as.MaxUtil {
			as.MaxUtil = u
		}
		if u > 1 {
			ws.over[id] = u
		}
	}
	var satisfied repeatSum
	var factor [maxPaths]float64
	first := 0
	for _, end := range ws.runEnds {
		run := tm.Demands[first:end]
		per := as.PerDemand[first:end]
		first = int(end)
		ds, n, k, segs := r.paths(run[0], &one)
		if n == 0 {
			clear(per) // unreachable: nothing is satisfied
			continue
		}
		share := run[0].Gbps / float64(n)
		if as.MaxUtil <= 1 {
			achieved := uncongested(share, n)
			satisfied.add(achieved, len(run))
			frac := achieved / run[0].Gbps
			for j := range per {
				per[j] = frac
			}
			continue
		}
		// A path's factor is max(its factor before the tail, the tail's
		// factor). Every factor before the tail is at least 1, so a tail
		// factor at most floor, the smallest of them, changes no path's:
		// such a demand's achieved rate is base, the one for factor 1.
		paths := pathFactors(&factor, ws.over, ds, k, segs)
		floor, base := paths[0], 0.0
		for _, pf := range paths {
			floor = min(floor, pf)
			base += share / pf
		}
		last, achieved := 1.0, base
		frac := achieved / run[0].Gbps
		for j, d := range run {
			f := 1.0 // the tail's factor where it changes a path's, shared by every path
			if tail := r.route[d.Dst].tail; tail >= 0 && ws.over[tail] > floor {
				f = ws.over[tail]
			}
			if f != last {
				last, achieved = f, 0
				for _, pf := range paths {
					achieved += share / max(pf, f)
				}
				frac = achieved / run[0].Gbps
			}
			satisfied.add(achieved, 1)
			per[j] = frac
		}
	}
	as.SatisfiedGbps = satisfied.sum()
	return as
}

// uncongested is a demand's achieved rate when no link is overloaded: every
// path's bottleneck factor is 1, so it is the share added once per path, n
// times. EvaluateInto's no-overload branch and Availability both take it
// from here.
//
//selfmaint:hotpath
func uncongested(share float64, n int32) float64 {
	achieved := 0.0
	for range n {
		achieved += share
	}
	return achieved
}

// addTails adds each demand's share n times to its tail, the last link of
// every one of its paths. A tail's far end has exactly one usable link, so
// no path of the run crosses it elsewhere: each tail takes its own demand's
// additions, in demand order. Two consecutive demands with distinct tails
// are summed in two registers at once; a run can repeat a destination, and
// then the second demand's additions follow the first's on the same link.
//
//selfmaint:hotpath
func (r *Router) addTails(load []float64, run []Demand, share float64, n int32) {
	route := r.route
	for j := 0; j < len(run); j++ {
		a := route[run[j].Dst].tail
		if a < 0 {
			continue
		}
		if j+1 < len(run) {
			if b := route[run[j+1].Dst].tail; b >= 0 && b != a {
				x, y := load[a], load[b]
				for range n {
					x += share
					y += share
				}
				load[a], load[b] = x, y
				j++
				continue
			}
		}
		x := load[a]
		for range n {
			x += share
		}
		load[a] = x
	}
}

// addSuffixes adds share m times to each link of seg, consecutive suffixes
// of l links each, as separate additions from each link's current load.
// Windows of up to min(4, l) consecutive positions are summed in
// independent registers, which needs a window's links to be distinct: the
// j-th link of every suffix joins the same two distance levels toward the
// root, and a window no longer than a suffix covers each level at most
// once. A link joins exactly one pair of levels, so the window's links
// differ, and no register's store drops another's additions.
//
//selfmaint:hotpath
func addSuffixes(load []float64, seg []int32, l int32, share float64, m int) {
	for l >= 4 && len(seg) >= 4 {
		a, b, c, d := seg[0], seg[1], seg[2], seg[3]
		w, x, y, z := load[a], load[b], load[c], load[d]
		for range m {
			w += share
			x += share
			y += share
			z += share
		}
		load[a], load[b], load[c], load[d] = w, x, y, z
		seg = seg[4:]
	}
	for l >= 3 && len(seg) >= 3 {
		a, b, c := seg[0], seg[1], seg[2]
		x, y, z := load[a], load[b], load[c]
		for range m {
			x += share
			y += share
			z += share
		}
		load[a], load[b], load[c] = x, y, z
		seg = seg[3:]
	}
	for l >= 2 && len(seg) >= 2 {
		a, b := seg[0], seg[1]
		x, y := load[a], load[b]
		for range m {
			x += share
			y += share
		}
		load[a], load[b] = x, y
		seg = seg[2:]
	}
	for _, a := range seg {
		x := load[a]
		for range m {
			x += share
		}
		load[a] = x
	}
}

// runEnd returns the end of the run that starts at demand i: the maximal
// stretch of consecutive demands with dm[i]'s source, its rate (==) and
// its destination's root, none of them a self-pair. Such demands have the
// same paths up to their tails and the same share on each. A self-pair,
// which has no paths, is a run of its own. Each destination it reads is
// resolved through current, so the walk over the runs is the evaluation's
// only read of the matrix, and it makes roots current in the order their
// destinations first appear.
//
//selfmaint:hotpath
func (r *Router) runEnd(dm []Demand, i int, arenas bool) int {
	h := dm[i]
	j := i + 1
	if h.Src == h.Dst {
		return j
	}
	root := r.current(h.Dst, arenas).root
	for _, d := range dm[j:] {
		if d.Src != h.Src || d.Gbps != h.Gbps || d.Dst == h.Src || r.current(d.Dst, arenas).root != root {
			break
		}
		j++
	}
	return j
}

// paths returns the structure serving demand d — its destination's root's,
// which the evaluation has made current — and d's paths before the tail:
// their number n (0: unreachable or a self-pair), their length k, and the
// segments they are read as, each a first hop to a next hop and how many of
// the next hop's suffixes follow it. A source at the root has one path, the
// tail alone, and no segment. A stub source's one segment is written into
// one: its link, followed by every suffix of its peer. Any other source's
// segments are its draws. With a tail, the destination's only usable link
// joins it to the root, so every source but the destination itself has as
// many paths toward it as toward the root.
//
//selfmaint:hotpath
func (r *Router) paths(d Demand, one *[1]draw) (ds *destState, n, k int32, segs []draw) {
	if d.Src == d.Dst {
		return nil, 0, 0, nil
	}
	ds = r.destCur[r.route[d.Dst].root]
	src := int32(d.Src)
	switch {
	case src == ds.root:
		return ds, 1, 0, nil
	case r.isStub(src):
		h := r.stub[src]
		p := ds.node[h.peer]
		if p.count == 0 || !r.lastUsable[h.link] {
			return ds, 0, 0, nil
		}
		one[0] = draw{peer: h.peer, link: h.link, c: p.count}
		return ds, p.count, p.plen + 1, one[:]
	}
	s := ds.node[src]
	if s.count == 0 {
		return ds, 0, 0, nil
	}
	return ds, s.count, s.plen, ds.draws[s.lo:s.hi]
}

// pathFactors writes into f the worst overload factor of each path of segs,
// paths of k links before the tail in ds, over those links — the first hop
// and the suffix links, walked as EvaluateInto's load pass walks them — and
// returns them in path order. Every factor is at least 1. A source at the
// root has one path, the tail alone, whose factor before the tail is 1. A
// demand's path factor is then the larger of this and its tail's factor:
// max is exact in any grouping, so this equals a scan of the whole path.
//
//selfmaint:hotpath
func pathFactors(f *[maxPaths]float64, over []float64, ds *destState, k int32, segs []draw) []float64 {
	if k == 0 {
		f[0] = 1
		return f[:1]
	}
	i := 0
	for _, sg := range segs {
		hop := max(1, over[sg.link])
		for s, c := ds.start[sg.peer], sg.c; c > 0; c-- {
			worst := hop
			for _, l := range ds.arena[s : s+k-1] {
				if over[l] > worst {
					worst = over[l]
				}
			}
			f[i] = worst
			i++
			s += k - 1
		}
	}
	return f[:i]
}
