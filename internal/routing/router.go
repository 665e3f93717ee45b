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
// the garbage collector to scan, and is keyed by attachment point: a
// destination with exactly one usable link is served by the structures of
// the link's far end (its root), with the link appended to every path as a
// tail; any other destination is its own root. Every cached BFS distance
// field sits in a per-root slot beside a bitset of the links tight toward
// the root (on some shortest path), and the destination-rooted arenas hold
// the int32 link IDs of transit devices' path suffixes toward the root,
// which EvaluateInto and LatencyModel.WorstPairLatency read as first-hop +
// suffix segments followed by the tail; they are the router's only
// representation of ECMP paths.
//
// EvaluateInto reads them once per run of consecutive demands with one
// source, one rate and one destination root. Every link load and every
// total receives exactly the floating-point additions, in exactly the
// order, that per-demand evaluation gives it, so every sum is
// bit-identical; only their execution is cheaper. Long chains of one value
// (a run's first hop, the offered and satisfied totals) are computed in
// O(log c) integer steps by an exact kernel, addRepeated (sum.go): while a
// sum stays in one binade, each addition of the same value adds the same
// whole number of ulps. Short chains on distinct links are summed in
// independent registers.
//
// A link leaving the usable subgraph touches only the fields whose bitset
// holds it, and most of those are settled by an exact O(degree) test: if
// the link's farther endpoint keeps another next hop, no distance changes.
// A field whose endpoint lost its last one is evicted, not recomputed. A
// link joining the subgraph is resolved from its two endpoint distances per
// field, and a field it shortens is evicted too. So no link transition runs
// a BFS: an evicted field is recomputed once, by the next evaluation that
// needs it, however many transitions came between. Every field whose ECMP
// DAG changes shelves its root's structure; the rest are validated lazily
// against epoch stamps. Invalidate remains as the full-flush fallback for
// bulk edits.
//
// Availability answers the one question the daily samples ask, the
// satisfied fraction, with EvaluateInto's bits. One pass over the runs sums
// the totals of the no-overload branch and an upper bound on every link's
// load; when the bound keeps every link within capacity, that branch is
// provably the one EvaluateInto takes, and no load is computed. Otherwise
// it falls back to EvaluateInto (availability.go).
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

// distEntry is one cached BFS distance field toward a root, the bitset
// (indexed by link ID) of the usable links tight toward it — exactly the
// links whose loss can change the field or its ECMP DAG — and the cache
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

	queue     []topology.DeviceID // BFS scratch
	freeDists []distEntry         // recycled distance fields with their bitsets

	// Destination-rooted engine state (destroot.go). route holds each
	// destination's root and tail as of the last prepareDests. destCur
	// holds each root's current suffix structure; destShelf is a one-slot
	// per-root parking spot for structures displaced by a subgraph
	// transition, restorable when the subgraph signature returns to their
	// build value (drain → undrain round trips restore for free).
	route       []destRoute
	destCur     []*destState
	destShelf   []*destState
	freeStates  []*destState
	builder     destBuilder // buildDest's scratch
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
		route:      make([]destRoute, len(net.Devices)),
		destCur:    make([]*destState, len(net.Devices)),
		destShelf:  make([]*destState, len(net.Devices)),
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
	r.subgraphSig ^= destLinkSig(id) // toggle the link in/out of the Zobrist hash
	r.cacheEpoch++
	if !u {
		r.linkDown(l)
	} else {
		r.linkUp(l)
	}
}

// linkDown handles link l leaving the usable subgraph. Roots are visited in
// ascending ID order; each field holding l as tight shelves its root's
// structure (its DAG lost an edge) and then either keeps its distances and
// stamp — dropping only l's tight bit — or, when l's farther endpoint lost
// its last next hop, is evicted. Nothing reads a field between two
// evaluations, so distEntryFor recomputes it when the next one needs it,
// once, under that evaluation's epoch.
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
		if r.keepsNextHop(e.dist, far) {
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
// bitset. Both kinds shelve their root's structure.
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

// evictDist empties root's slot, recycling its field and bitset.
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
	// validity check exact even after bulk edits. Roots are resolved afresh
	// from the snapshot by every prepareDests.
}

// distEntryFor returns the cached BFS distance field toward root, computing
// it and its tight bitset if absent. Caching per root is what makes
// evaluating thousands of demands cheap: one BFS serves every source of
// every destination the root serves.
//
//selfmaint:hotpath
func (r *Router) distEntryFor(root topology.DeviceID) distEntry {
	if e := r.distCache[root]; e.dist != nil {
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
	r.computeField(root, &e)
	r.distCache[root] = e
	r.fields++
	return e
}

// computeField rewrites e as the field toward root over the usability
// snapshot, stamped with the current epoch: BFS distances (-1 unreachable)
// and, in the same pass, the tight bitset — exactly the usable links on some
// shortest path toward root, the set topology.ShortestPathLinks visits. A
// link outside the bitset can change state without changing the distances
// or the ECMP DAG. When a device is dequeued, every neighbour one hop closer
// already has its final distance, so each tight link is recorded once, from
// its farther endpoint.
//
//selfmaint:hotpath
func (r *Router) computeField(root topology.DeviceID, e *distEntry) {
	dist := e.dist
	for i := range dist {
		dist[i] = -1
	}
	clear(e.tight)
	dist[root] = 0
	q := append(r.queue[:0], root)
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

	// Availability's (root, next hop) sums: row i holds, for the i-th root
	// the call met, the summed m·share of the runs entering each device
	// toward that root. rowOf maps a root to its row plus one (0: none).
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
// paths are read as segments: for each next hop p of s, in adjacency order,
// the first hop s→p followed by each of the first c of p's suffixes toward
// d's root, and then d's tail, if it has one. A source at the root has one
// path, the tail alone.
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
	r.prepareDests(tm)
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
	for i := 0; i < len(tm.Demands); {
		end := r.runEnd(tm.Demands, i)
		run := tm.Demands[i:end]
		i = end
		//lint:allow hotpathalloc grows to the matrix's run count once; the buffer is retained on the workspace
		ws.runEnds = append(ws.runEnds, int32(end))
		// A run's rates are equal (==); ±0 add alike to a total that starts
		// at +0, so the run adds its first rate len(run) times.
		offered.add(run[0].Gbps, len(run))
		ds, _, n := r.routeCount(run[0])
		if n == 0 {
			as.Unreachable += len(run)
			continue
		}
		share := run[0].Gbps / float64(n)
		r.addTails(load, run, share, n)
		k := ds.plen[run[0].Src]
		if k == 0 {
			continue // a source at the root: its one path is the tail
		}
		m := len(run)
		for _, np := range r.net.Neighbors(run[0].Src) {
			if n == 0 {
				break
			}
			if !r.startsSegment(ds, np, k) {
				continue
			}
			p := np.Peer.ID
			c := min(n, ds.count[p])
			n -= c
			load[np.Link.ID] = addN(load[np.Link.ID], share, int(c)*m)
			s := ds.start[p]
			addSuffixes(load, ds.arena[s:s+c*(k-1)], k-1, share, m)
		}
	}
	as.OfferedGbps = offered.sum()
	// Overload factors.
	for id, l := range load {
		cap := r.net.Links[id].GbpsCap
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
		ds, _, n := r.routeCount(run[0])
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
		paths := r.pathFactors(&factor, ws.over, ds, run[0].Src, n)
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
// which has no paths, is a run of its own. Roots are read from route,
// which prepareDests resolved for every destination of the matrix.
//
//selfmaint:hotpath
func (r *Router) runEnd(dm []Demand, i int) int {
	h := dm[i]
	j := i + 1
	if h.Src == h.Dst {
		return j
	}
	route := r.route
	root := route[h.Dst].root
	for _, d := range dm[j:] {
		if d.Src != h.Src || d.Gbps != h.Gbps || d.Dst == h.Src || route[d.Dst].root != root {
			break
		}
		j++
	}
	return j
}

// routeCount returns the structure serving demand d — its destination's
// root's — the tail link that ends every one of its paths (-1: none), and
// the number of equal-cost paths it splits over (0: unreachable or a
// self-pair). With a tail, the destination's only usable link joins it to
// the root, so every source but the destination itself has as many paths
// toward it as toward the root; the root itself has one, the tail.
//
//selfmaint:hotpath
func (r *Router) routeCount(d Demand) (*destState, int32, int32) {
	if d.Src == d.Dst {
		return nil, -1, 0
	}
	rt := r.route[d.Dst]
	ds := r.destCur[rt.root]
	return ds, rt.tail, ds.count[d.Src]
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

// pathFactors writes into f the worst overload factor of each of src's n
// paths in ds over its links before the tail — the first hop and the
// suffix links, walked as EvaluateInto's load pass walks them — and returns
// them in path order. Every factor is at least 1. A source at the root has
// one path, the tail alone, whose factor before the tail is 1. A demand's
// path factor is then the larger of this and its tail's factor: max is
// exact in any grouping, so this equals a scan of the whole path.
//
//selfmaint:hotpath
func (r *Router) pathFactors(f *[maxPaths]float64, over []float64, ds *destState, src topology.DeviceID, n int32) []float64 {
	k := ds.plen[src]
	if k == 0 {
		f[0] = 1
		return f[:1]
	}
	i := 0
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
			f[i] = worst
			i++
			s += k - 1
		}
	}
	return f[:i]
}
