// Destination-rooted ECMP evaluation: the router's only representation of
// ECMP paths, read by EvaluateInto, Availability and
// LatencyModel.WorstPairLatency.
//
// Its executable specification is a per-pair enumerator kept only in tests
// (specPaths in destroot_test.go): a recursive DFS over the ECMP DAG for
// every (src,dst) demand that allocates every path as its own slice — under
// full uniform injection, O(sources) DFS walks per destination and millions
// of small allocations per assessment.
//
// The destination-rooted engine serves all sources of one destination off a
// single shared structure, and one structure serves every destination
// attached to the same point. Each destination of a matrix resolves to a
// root from the usability snapshot: a destination with exactly one usable
// link, to switch t say, is served by t's structure with that link as a
// tail appended to every path; any other destination (multi-homed, or with
// no usable link) is its own root, with no tail. This is exact: every path
// toward such a destination d enters it over its one link, so for every
// device x ≠ d the distance toward d is one more than toward t, x has the
// same next hops, and the same capped suffix counts (d and t both count
// one suffix toward d). Every suffix toward d is thus the matching suffix
// toward t followed by the tail, and the source t itself has one path, the
// tail alone. On a fat-tree every host is single-homed, so the roots are
// the edge switches: a k=12 fabric builds 72 structures for its 432 host
// destinations.
//
// Stubs — devices with exactly one link — stay out of every structure but
// their own. A stub can end a shortest path but never lie inside one, so
// leaving the others out changes no other device's distance, next hops or
// suffix count. A stub source's paths toward another root are its one link
// followed by its peer's suffixes (unreachable when that link is down or
// the peer is), read off the peer at evaluation time. A stub's link
// transition thus changes no other root's structure.
//
// For each root one traversal (buildRoot) records, per device, the number
// and length of the device's shortest-path suffixes to the root over the
// ECMP DAG, and its draws: the next hops it takes suffixes from, in the
// exact adjacency order the per-pair DFS uses, and how many from each, capped
// at maxPaths in all — which preserves the per-pair path lists
// bit-for-bit: the first maxPaths paths of the DFS concatenation consume at
// most the first maxPaths suffixes of each downstream device (see
// TestDestRootedMatchesPerPairEnumerator). Availability needs nothing more.
// For readers of suffixes, materialize writes the suffixes of transit
// devices — the next hops some device draws from, and every device a stub
// hangs off — from the draws, in BFS order, so every suffix is one link
// prepended to an already-written suffix of the next hop. A source's own
// paths are never stored: consumers read them as segments, a first-hop
// link followed by a run of a next hop's suffixes and then the tail.
//
// All suffixes toward one root live in a single flat arena of int32 link
// IDs (per-device offset spans), so a warm evaluation allocates nothing, a
// rebuild reuses the retained arena, and the garbage collector has no
// pointers to scan in it.
//
// Incremental maintenance extends the router's per-link invalidation: a
// link transition that can change a root's DAG shelves that root's
// structure instead of discarding it, stamped with the subgraph signature
// (a Zobrist hash over usable non-stub links) it was built under. When the
// subgraph returns to that exact signature — an undrain restoring the
// pre-drain fabric, the maintindex sweep's every other step — the shelved
// structure is restored wholesale, arena included, with no traversal at
// all.
//
// A root that is neither valid nor restorable is rebuilt into a recycled
// structure as soon as an evaluation's walk meets it. EvaluateInto adds to
// every link, in demand order, exactly the values the per-pair paths would,
// so every float summation order — and therefore the Assessment — is
// byte-identical to the per-pair specification.
package routing

import "repro/internal/topology"

// maxPaths bounds the equal-cost paths a demand splits over: every device's
// suffix list is capped at it.
const maxPaths = 8

// draw is one segment of a device's suffix list toward a root: the link to
// a next hop peer, followed by each of the peer's first c suffixes.
type draw struct {
	peer, link, c int32
}

// node is one device's entry in a destState: the number of its
// shortest-path suffixes toward the root (0: none — unreached, or a stub
// other than the root), their length in links (its BFS distance at build
// time), and the range of its draws in the structure's draws.
type node struct {
	count, plen int32
	lo, hi      int32
}

// destState is the destination-rooted ECMP structure for one root: a node
// per device, every device's draws, device by device in BFS order, and
// that order, which holds the devices with suffixes, the root first. Stubs
// other than the root have none here (see paths). Once materialized, a
// transit device's suffixes lie contiguously in one arena of link IDs,
// starting at arena[start[d]]; any other device's start is meaningless.
type destState struct {
	stamp        uint64 // distance-field stamp the structure was built over
	sig          uint64 // subgraph signature at build time (see subgraphSig)
	root         int32
	order        []int32
	draws        []draw
	node         []node
	materialized bool // arena and start hold every transit suffix
	arena        []int32
	start        []int32
}

// destRoute is one destination's resolution: the root whose structure
// serves it and the tail link that ends every path toward it (-1: none, the
// destination is its own root). seq is the evaluation that resolved it, so
// each evaluation resolves each destination once.
type destRoute struct {
	seq  uint64
	root int32
	tail int32
}

// grow returns s with length n and all elements zero, reusing the backing
// array when capacity allows.
func grow[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// resize returns s with length n, reusing the backing array when capacity
// allows; the elements keep whatever values they held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		//lint:allow hotpathalloc a reused scratch buffer grows only when the fabric or matrix does; steady state never re-enters
		return make([]T, n)
	}
	return s[:n]
}

// reset readies ds for a traversal toward root over the field stamped
// stamp, under subgraph signature sig: no device but the root, with its one
// empty suffix, has suffixes yet, and the arena is stale. Only the devices
// of ds's last order have nonzero nodes, so only theirs are cleared.
func (ds *destState) reset(nd int, root topology.DeviceID, stamp, sig uint64) {
	ds.stamp, ds.sig, ds.root = stamp, sig, int32(root)
	if len(ds.node) != nd {
		ds.node = grow(ds.node, nd)
	}
	for _, x := range ds.order {
		ds.node[x] = node{}
	}
	ds.node[root].count = 1
	// Reached devices draw about three times each on the studied fabrics,
	// and stubs, which draw nothing, outnumber the rest.
	ds.draws = resize(ds.draws, nd)[:0]
	ds.materialized = false
}

// drawsOf returns device d's draws.
func (ds *destState) drawsOf(d int32) []draw {
	n := ds.node[d]
	return ds.draws[n.lo:n.hi]
}

// destLinkSig returns the Zobrist contribution of one link to the subgraph
// signature (SplitMix64 of the link ID; deterministic across runs, so
// signatures are replay-safe).
func destLinkSig(id topology.LinkID) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// recomputeSubgraphSig derives the signature from the lastUsable snapshot —
// the fallback Invalidate and NewRouter use; single-link transitions
// maintain it incrementally in InvalidateLink. Stub links are left out: no
// structure but their stub's own depends on them, and that one is discarded
// when the link changes.
func (r *Router) recomputeSubgraphSig() {
	var sig uint64
	for id, u := range r.lastUsable {
		if u && !r.stubLink(r.net.Links[id]) {
			sig ^= destLinkSig(topology.LinkID(id))
		}
	}
	r.subgraphSig = sig
}

// shelveDest retires root's current structure after a transition that may
// have changed its DAG. The structure is moved to the one-slot shelf rather
// than discarded: if the subgraph later returns to the structure's build
// signature (undraining the link it was drained around), it is restored
// without re-enumeration. When the shelf already holds a structure whose
// signature matches the subgraph we just arrived at — the undrain case,
// where the shelved pre-drain structure is about to become current again —
// the newer structure is recycled instead.
func (r *Router) shelveDest(root topology.DeviceID) {
	ds := r.destCur[root]
	if ds == nil {
		return
	}
	r.destCur[root] = nil
	if old := r.destShelf[root]; old != nil {
		if old.sig == r.subgraphSig {
			r.freeStates = append(r.freeStates, ds)
			return
		}
		r.freeStates = append(r.freeStates, old)
	}
	r.destShelf[root] = ds
}

// takeState returns a destState to rebuild into, recycling retained arenas.
func (r *Router) takeState() *destState {
	if n := len(r.freeStates); n > 0 {
		ds := r.freeStates[n-1]
		r.freeStates[n-1] = nil
		r.freeStates = r.freeStates[:n-1]
		return ds
	}
	//lint:allow hotpathalloc free-list miss: allocates only until the pool warms up
	return &destState{}
}

// resolveRoot returns the root whose structure serves destination dst and
// the tail link that ends every path toward it, read from the usability
// snapshot: a destination with exactly one usable link is served by the
// link's far end, with the link as its tail; any other destination is its
// own root, with no tail (-1). It counts every usable link of dst, its
// stub neighbours' included, which the router's own hop lists leave out.
//
//selfmaint:hotpath
func (r *Router) resolveRoot(dst topology.DeviceID) (topology.DeviceID, int32) {
	root, tail := dst, int32(-1)
	for _, np := range r.net.Neighbors(dst) {
		if !r.lastUsable[np.Link.ID] {
			continue
		}
		if tail >= 0 {
			return dst, -1 // multi-homed
		}
		root, tail = np.Peer.ID, int32(np.Link.ID)
	}
	return root, tail
}

// current returns dst's resolution for the running evaluation, resolving it
// the first time the evaluation meets dst.
//
//selfmaint:hotpath
func (r *Router) current(dst topology.DeviceID, arenas bool) destRoute {
	if rt := r.route[dst]; rt.seq == r.destSeq {
		return rt
	}
	return r.resolve(dst, arenas)
}

// resolve resolves dst to its root and tail and makes the root's structure
// current: a valid structure is kept, a signature-matching shelved one is
// restored, or one is rebuilt on the spot — over the cached field when the
// field survived, with one traversal that computes the field too when it
// did not. Either way the root's current structure carries its field's
// stamp from then on, so later destinations with the same root find it
// valid. With arenas set (readers of suffixes), the structure is also
// materialized.
//
//selfmaint:hotpath
func (r *Router) resolve(dst topology.DeviceID, arenas bool) destRoute {
	root, tail := r.resolveRoot(dst)
	rt := destRoute{seq: r.destSeq, root: int32(root), tail: tail}
	r.route[dst] = rt
	ds := r.makeCurrent(root)
	if arenas && !ds.materialized {
		r.materialize(ds)
	}
	return rt
}

// makeCurrent returns root's current structure, keeping, restoring or
// rebuilding it (see resolve).
//
//selfmaint:hotpath
func (r *Router) makeCurrent(root topology.DeviceID) *destState {
	e := &r.distCache[root]
	fresh := e.dist == nil
	cur := r.destCur[root]
	if !fresh && cur != nil && cur.stamp == e.stamp {
		return cur // still valid, or made current earlier in this evaluation
	}
	if sh := r.destShelf[root]; sh != nil && sh.sig == r.subgraphSig {
		// The subgraph is bit-for-bit the one the shelved structure was
		// built under (identical usable set ⇒ identical distances and
		// DAG): restore it under the current field's stamp.
		sh.stamp = r.distEntryFor(root).stamp
		r.destCur[root] = sh
		r.destShelf[root] = cur // may be nil
		return sh
	}
	if fresh {
		r.fillDist(e)
	}
	ds := r.takeState()
	r.buildRoot(e, root, fresh, ds)
	r.destCur[root] = ds
	if cur != nil {
		// Demote the stale structure to the shelf: the subgraph may
		// return to its build signature (drain/undrain sweeps do).
		if old := r.destShelf[root]; old != nil {
			r.freeStates = append(r.freeStates, old)
		}
		r.destShelf[root] = cur
	}
	return ds
}

// materialize writes ds's transit suffixes from its draws, with no
// neighbour scan: the devices some device draws from, and every device a
// stub hangs off, since stub sources draw from those. Devices are written
// in BFS order, so each suffix is a draw's link prepended to one of the
// draw's next hop's already-written suffixes. The arena is sized by the
// transit suffixes, exactly once.
//
//selfmaint:hotpath
func (r *Router) materialize(ds *destState) {
	transit := grow(r.transit, len(ds.node))
	r.transit = transit
	total := int32(0)
	for _, x := range ds.order {
		if r.stubPeer[x] {
			transit[x] = true
			total += ds.node[x].count * ds.node[x].plen
		}
	}
	for _, d := range ds.draws {
		if !transit[d.peer] {
			transit[d.peer] = true
			total += ds.node[d.peer].count * ds.node[d.peer].plen
		}
	}
	ds.start = resize(ds.start, len(ds.node))
	arena := resize(ds.arena, int(total))
	w := int32(0)
	for _, x := range ds.order {
		if !transit[x] {
			continue
		}
		k := ds.node[x].plen
		ds.start[x] = w
		if k == 0 {
			continue // the root's empty suffix takes no space
		}
		for _, d := range ds.drawsOf(x) {
			ps := ds.start[d.peer]
			for i := range d.c {
				arena[w] = d.link
				copy(arena[w+1:w+k], arena[ps+i*(k-1):ps+(i+1)*(k-1)])
				w += k
			}
		}
	}
	ds.arena = arena
	ds.materialized = true
}
