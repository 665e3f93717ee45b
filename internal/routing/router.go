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
// the garbage collector to scan. Every cached BFS distance field sits in a
// per-device slot beside a bitset of the links tight toward its destination
// (on some shortest path), and the destination-rooted arenas hold the int32
// link IDs of transit devices' path suffixes, which EvaluateInto and
// LatencyModel.WorstPairLatency read as first-hop + suffix segments; they
// are the router's only representation of ECMP paths. A link leaving the
// usable subgraph touches only the fields whose bitset holds it, and most
// of those are settled by an exact O(degree) test: if the link's farther
// endpoint keeps another next hop, no distance changes. A BFS runs only
// when that endpoint lost its last one. A link joining the subgraph is
// resolved from its two endpoint distances per field. Every field whose
// ECMP DAG changes shelves its destination's structure; the rest are
// validated lazily against epoch stamps. Invalidate remains as the
// full-flush fallback for bulk edits.
//
// Traversals — BFS, the tight-link bitsets and destination-rooted builds —
// read a usability snapshot, never HealthFn. Only InvalidateLink, Drain,
// Undrain and Invalidate refresh it.
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

// distEntry is one cached BFS distance field toward a destination, the
// bitset (indexed by link ID) of the usable links tight toward it — exactly
// the links whose loss can change the field or its ECMP DAG — and the cache
// epoch the field was computed under. A zero entry (nil dist) is an empty
// slot; the field and its bitset are recycled together.
type distEntry struct {
	dist  []int
	tight []uint64
	stamp uint64
}

// Router computes paths and loads over the currently usable subgraph.
type Router struct {
	net     *topology.Network
	health  HealthFn
	drained []bool

	// Workers bounds the goroutines used to rebuild destination-rooted
	// structures inside EvaluateInto (0 or 1 means serial). Rebuilds are
	// pure per-destination functions, so the worker count is a throughput
	// knob only: results are byte-identical at any setting.
	Workers int

	// distCache holds each destination's distance field and tight-link
	// bitset, indexed by DeviceID. Every cached field is exact for the
	// current snapshot: transitions repair or evict fields eagerly, and
	// only destination structures go stale lazily. fields counts the
	// occupied slots: while it is zero (a router never evaluated, like a
	// fleet region's) transitions skip the slot scan.
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

	queue     []topology.DeviceID // BFS scratch
	freeDists []distEntry         // recycled distance fields with their bitsets

	// Destination-rooted engine state (destroot.go). destCur holds each
	// destination's current suffix structure; destShelf is a one-slot
	// per-destination parking spot for structures displaced by a subgraph
	// transition, restorable when the subgraph signature returns to their
	// build value (drain → undrain round trips restore for free).
	destCur     []*destState
	destShelf   []*destState
	freeStates  []*destState
	builders    []*destBuilder
	pending     []buildJob
	destMark    []uint64 // per-destination dedup scratch for prepareDests
	destSeq     uint64
	subgraphSig uint64 // Zobrist hash of the usable link set
}

// NewRouter creates a router. health may be nil, meaning all links are
// physically up.
func NewRouter(net *topology.Network, health HealthFn) *Router {
	r := &Router{
		net:        net,
		health:     health,
		drained:    make([]bool, len(net.Links)),
		distCache:  make([]distEntry, len(net.Devices)),
		lastUsable: make([]bool, len(net.Links)),
		destCur:    make([]*destState, len(net.Devices)),
		destShelf:  make([]*destState, len(net.Devices)),
		destMark:   make([]uint64, len(net.Devices)),
	}
	for i, l := range net.Links {
		r.lastUsable[i] = r.Usable(l)
	}
	r.recomputeSubgraphSig()
	return r
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
//   - If the link left the usable subgraph, only destinations whose tight
//     bitset holds it can change. An O(degree) test proves most of those
//     fields unchanged (ECMP redundancy); the rest are recomputed.
//   - If the link joined the subgraph, a destination's field changes only if
//     the link bridges devices the field ranks ≥2 apart (an edge between
//     equidistant devices can never lie on a shortest path; one bridging a
//     single hop leaves all distances intact). For surviving fields the new
//     edge joins the ECMP DAG and the field's tight bitset.
//
// Either way, every destination whose ECMP DAG may have changed shelves its
// destination-rooted structure; it is restored or rebuilt on next use.
func (r *Router) InvalidateLink(id topology.LinkID) {
	l := r.net.Links[id]
	u := r.Usable(l)
	if u == r.lastUsable[id] {
		return
	}
	r.lastUsable[id] = u
	r.subgraphSig ^= destLinkSig(id) // toggle the link in/out of the Zobrist hash
	r.cacheEpoch++
	if !u {
		r.linkDown(l)
	} else {
		r.linkUp(l)
	}
}

// linkDown handles link l leaving the usable subgraph. Destinations are
// visited in ascending ID order; each field holding l as tight shelves its
// destination-rooted structure (its DAG lost an edge) and then either keeps
// its distances and stamp — dropping only l's tight bit — or, when l's
// farther endpoint lost its last next hop, is recomputed in place under a
// fresh stamp.
//
//selfmaint:hotpath
func (r *Router) linkDown(l *topology.Link) {
	id, a, b := l.ID, l.A.Device.ID, l.B.Device.ID
	for i := 0; r.fields > 0 && i < len(r.distCache); i++ {
		e := &r.distCache[i]
		if e.dist == nil || e.tight[id>>6]&(1<<(id&63)) == 0 {
			continue
		}
		dst := topology.DeviceID(i)
		// The link was tight toward dst, so dst's ECMP DAG lost an edge even
		// when the distances below survive: shelve the destination-rooted
		// structure (an undrain restores it via the subgraph signature).
		r.shelveDest(dst)
		far := a
		if e.dist[b] > e.dist[a] {
			far = b
		}
		if r.keepsNextHop(e.dist, far) {
			e.tight[id>>6] &^= 1 << (id & 63) // distances and stamp stand
			continue
		}
		// far's distance grows, so the field changes: recompute it in place
		// under a new stamp.
		r.computeField(dst, e)
	}
}

// keepsNextHop reports whether device u still has a usable neighbour one hop
// closer to the destination of field dist. It is the exact survival test for
// the loss of a link tight toward that destination: only the link's farther
// endpoint u descended over it, so if u keeps a next hop every device keeps
// one and, by induction on distance, no distance changes. If u has none, its
// distance grows.
//
//selfmaint:hotpath
func (r *Router) keepsNextHop(dist []int, u topology.DeviceID) bool {
	for _, np := range r.net.Neighbors(u) {
		if r.lastUsable[np.Link.ID] && dist[np.Peer.ID] == dist[u]-1 {
			return true
		}
	}
	return false
}

// linkUp handles link l (a↔b) joining the usable subgraph. Fields ranking
// the endpoints equal are untouched; fields ranking them ≥2 apart (or one
// side unreachable) shorten and are evicted. Fields ranking them exactly one
// apart keep their distances but gain a DAG edge: the link joins their tight
// bitset. Both kinds shelve their destination-rooted structure.
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
		// The destination's DAG gains an edge (or its field shortens), so
		// its suffix structure retires to the shelf (an undrain round trip
		// restores the pre-drain one).
		dst := topology.DeviceID(i)
		r.shelveDest(dst)
		if da < 0 || db < 0 || da-db > 1 || db-da > 1 {
			r.evictDist(dst) // the link shortens or newly connects routes to dst
			continue
		}
		// |da-db| == 1: distances survive; the link is now tight toward dst.
		e.tight[id>>6] |= 1 << (id & 63)
	}
}

// evictDist empties dst's slot, recycling its field and bitset.
func (r *Router) evictDist(dst topology.DeviceID) {
	r.freeDists = append(r.freeDists, r.distCache[dst])
	r.distCache[dst] = distEntry{}
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
	for dst := range r.distCache {
		if r.distCache[dst].dist != nil {
			r.evictDist(topology.DeviceID(dst))
		}
	}
	for i, l := range r.net.Links {
		r.lastUsable[i] = r.Usable(l)
	}
	r.recomputeSubgraphSig()
	// Destination-rooted structures are not flushed here: stale ones fail
	// their stamp comparison on next use (the fresh fields carry the new
	// epoch), and shelved ones stay restorable — the recomputed signature
	// makes the validity check exact even after bulk edits.
}

// distEntryFor returns the cached BFS distance field toward dst, computing
// it and its tight bitset if absent. Caching per destination is what makes
// evaluating thousands of demands cheap: one BFS serves every source.
//
//selfmaint:hotpath
func (r *Router) distEntryFor(dst topology.DeviceID) distEntry {
	if e := r.distCache[dst]; e.dist != nil {
		return e
	}
	var e distEntry
	if n := len(r.freeDists); n > 0 {
		e = r.freeDists[n-1]
		r.freeDists[n-1] = distEntry{}
		r.freeDists = r.freeDists[:n-1]
	} else {
		//lint:allow hotpathalloc free-list miss; the field is cached and recycled, steady state reuses buffers
		e.dist = make([]int, len(r.net.Devices))
		//lint:allow hotpathalloc free-list miss; the bitset is recycled with its field
		e.tight = make([]uint64, (len(r.net.Links)+63)/64)
	}
	r.computeField(dst, &e)
	r.distCache[dst] = e
	r.fields++
	return e
}

// computeField rewrites e as the field toward dst over the usability
// snapshot, stamped with the current epoch: BFS distances (-1 unreachable)
// and, in the same pass, the tight bitset — exactly the usable links on some
// shortest path toward dst, the set topology.ShortestPathLinks visits. A
// link outside the bitset can change state without changing the distances
// or the ECMP DAG. When a device is dequeued, every neighbour one hop closer
// already has its final distance, so each tight link is recorded once, from
// its farther endpoint.
//
//selfmaint:hotpath
func (r *Router) computeField(dst topology.DeviceID, e *distEntry) {
	dist := e.dist
	for i := range dist {
		dist[i] = -1
	}
	clear(e.tight)
	dist[dst] = 0
	q := append(r.queue[:0], dst)
	for h := 0; h < len(q); h++ {
		d := q[h]
		k := dist[d]
		for _, np := range r.net.Neighbors(d) {
			id := np.Link.ID
			if !r.lastUsable[id] {
				continue
			}
			if p := np.Peer.ID; dist[p] < 0 {
				dist[p] = k + 1
				//lint:allow hotpathalloc BFS queue growth on first use; the backing array is retained on the router
				q = append(q, p)
			} else if dist[p] == k-1 {
				e.tight[id>>6] |= 1 << (id & 63)
			}
		}
	}
	r.queue = q
	e.stamp = r.cacheEpoch
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
// A zero Workspace is ready to use; buffers grow to the fabric size on
// first evaluation and are retained, so steady-state assessment through
// EvaluateInto allocates nothing. A Workspace must not be shared across
// goroutines.
type Workspace struct {
	perDemand []float64
	linkLoad  []float64
	over      []float64
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
// shared suffix structure per destination serves every source, in place of
// an independent DFS per pair. Demand (s,d)'s paths are read as segments:
// for each next hop p of s, in adjacency order, the first hop s→p followed
// by each of the first c of p's suffixes. Within a demand every addition is
// the same share, so adding it c times to the first hop and once per suffix
// link gives each link exactly the per-pair paths' additions, in demand
// order. When no link is overloaded every path's bottleneck factor is 1, so
// the satisfaction pass skips the path scan. The Assessment is therefore
// byte-identical to the per-pair specification at any Workers setting.
//
//selfmaint:hotpath
func (r *Router) EvaluateInto(ws *Workspace, tm TrafficMatrix) Assessment {
	r.prepareDests(tm)
	nl := len(r.net.Links)
	ws.perDemand = grow(ws.perDemand, len(tm.Demands))
	ws.linkLoad = grow(ws.linkLoad, nl)
	ws.over = grow(ws.over, nl)
	as := Assessment{
		PerDemand: ws.perDemand,
		LinkLoad:  ws.linkLoad,
	}
	for _, d := range tm.Demands {
		as.OfferedGbps += d.Gbps
		ds, n := r.routeCount(d)
		if n == 0 {
			as.Unreachable++
			continue
		}
		share := d.Gbps / float64(n)
		k := ds.plen[d.Src]
		for _, np := range r.net.Neighbors(d.Src) {
			if n == 0 {
				break
			}
			if !r.startsSegment(ds, np, k) {
				continue
			}
			p := np.Peer.ID
			c := min(n, ds.count[p])
			n -= c
			for range c {
				as.LinkLoad[np.Link.ID] += share // c adds, not one multiply: bit-exact sums
			}
			s := ds.start[p]
			for _, l := range ds.arena[s : s+c*(k-1)] {
				as.LinkLoad[l] += share
			}
		}
	}
	// Overload factors.
	for id, load := range as.LinkLoad {
		cap := r.net.Links[id].GbpsCap
		if cap <= 0 {
			continue
		}
		u := load / cap
		if u > as.MaxUtil {
			as.MaxUtil = u
		}
		if u > 1 {
			ws.over[id] = u
		}
	}
	for i, d := range tm.Demands {
		ds, n := r.routeCount(d)
		if n == 0 {
			continue
		}
		share := d.Gbps / float64(n)
		achieved := 0.0
		if as.MaxUtil <= 1 {
			for range n {
				achieved += share // every bottleneck factor is 1
			}
		} else {
			achieved = r.bottlenecked(ws.over, ds, d.Src, n, share)
		}
		as.SatisfiedGbps += achieved
		as.PerDemand[i] = achieved / d.Gbps
	}
	return as
}

// routeCount returns the destination structure serving demand d and the
// number of equal-cost paths it splits over (0: unreachable or a self-pair).
//
//selfmaint:hotpath
func (r *Router) routeCount(d Demand) (*destState, int32) {
	if d.Src == d.Dst {
		return nil, 0
	}
	ds := r.destCur[d.Dst]
	return ds, ds.count[d.Src]
}

// startsSegment reports whether neighbour np of a source at path length k
// starts a segment of the source's paths in ds: a usable link to a device
// one hop closer that has suffixes.
//
//selfmaint:hotpath
func (r *Router) startsSegment(ds *destState, np topology.LinkPeer, k int32) bool {
	p := np.Peer.ID
	return r.lastUsable[np.Link.ID] && ds.plen[p] == k-1 && ds.count[p] > 0
}

// bottlenecked sums share divided by each of src's n paths' worst overload
// factor, in path order, walking the same segments as EvaluateInto's load
// pass: a path's factor covers its first hop and its suffix links.
//
//selfmaint:hotpath
func (r *Router) bottlenecked(over []float64, ds *destState, src topology.DeviceID, n int32, share float64) float64 {
	achieved := 0.0
	k := ds.plen[src]
	for _, np := range r.net.Neighbors(src) {
		if n == 0 {
			break
		}
		if !r.startsSegment(ds, np, k) {
			continue
		}
		p := np.Peer.ID
		c := min(n, ds.count[p])
		n -= c
		hop := max(1, over[np.Link.ID])
		for s := ds.start[p]; c > 0; c-- {
			worst := hop
			for _, l := range ds.arena[s : s+k-1] {
				if over[l] > worst {
					worst = over[l]
				}
			}
			achieved += share / worst
			s += k - 1
		}
	}
	return achieved
}
