// Destination-rooted ECMP evaluation: the router's only representation of
// ECMP paths, read by EvaluateInto and LatencyModel.WorstPairLatency.
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
// For each root the structure records, per device, the number and length of
// the device's shortest-path suffixes to the root over the ECMP DAG, and
// materializes the suffixes of transit devices — the next hops some device
// draws suffixes from. Devices are processed in ascending BFS distance, so
// every suffix is one link prepended to an already-materialized suffix of
// the next hop. Enumeration follows the exact adjacency order the per-pair
// DFS uses, and each device's suffix list is capped at maxPaths — which
// preserves the per-pair path lists bit-for-bit: the first maxPaths paths
// of the DFS concatenation consume at most the first maxPaths suffixes of
// each downstream device (see TestDestRootedMatchesPerPairEnumerator). A
// source's own paths are never stored: consumers read them as segments, a
// first-hop link followed by a run of a next hop's suffixes and then the
// tail, so a device nothing descends through (in every studied fabric, a
// host) takes no arena space.
//
// All suffixes toward one root live in a single flat arena of int32 link
// IDs (per-device offset spans), so a warm evaluation allocates nothing, a
// rebuild reuses the retained arena, and the garbage collector has no
// pointers to scan in it.
//
// Incremental maintenance extends the router's per-link invalidation: a
// link transition that can change a root's DAG shelves that root's
// structure instead of discarding it, stamped with the subgraph signature
// (a Zobrist hash over usable links) it was built under. When the subgraph
// returns to that exact signature — an undrain restoring the pre-drain
// fabric, the maintindex sweep's every other step — the shelved structure
// is restored wholesale, with no re-enumeration at all.
//
// A root that is neither valid nor restorable is rebuilt into a recycled
// structure as soon as prepareDests meets it. EvaluateInto adds to every
// link, in demand order, exactly the values the per-pair paths would, so
// every float summation order — and therefore the Assessment — is
// byte-identical to the per-pair specification.
package routing

import "repro/internal/topology"

// maxPaths bounds the equal-cost paths a demand splits over: every device's
// suffix list is capped at it.
const maxPaths = 8

// destState is the destination-rooted ECMP structure for one root. Device d
// has count[d] shortest-path suffixes toward the root, of plen[d] links each
// (its BFS distance at build time). A transit device's suffixes are
// materialized contiguously in one arena of link IDs, starting at
// arena[start[d]]; any other device's start is meaningless.
type destState struct {
	stamp uint64 // distance-field stamp the structure was built over
	sig   uint64 // subgraph signature at build time (see subgraphSig)
	arena []int32
	start []int32
	count []int32
	plen  []int32
}

// destRoute is one destination's resolution: the root whose structure
// serves it and the tail link that ends every path toward it (-1: none, the
// destination is its own root). seq is the prepareDests call that resolved
// it, which also dedups destinations within that call.
type destRoute struct {
	seq  uint64
	root int32
	tail int32
}

// destBuilder is buildDest's scratch, retained on the router across
// rebuilds: the counting-sort buffers that order devices by ascending BFS
// distance, and the transit marks (devices some other device draws suffixes
// from).
type destBuilder struct {
	order   []topology.DeviceID
	bucket  []int32
	transit []bool
}

// grow returns s with length n and all elements zero, reusing the backing
// array when capacity allows.
func grow[T int32 | float64 | bool](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// resize returns s with length n, reusing the backing array when capacity
// allows; the elements keep whatever values they held.
func resize[T int32 | float64 | bool](s []T, n int) []T {
	if cap(s) < n {
		//lint:allow hotpathalloc a reused scratch buffer grows only when the fabric or matrix does; steady state never re-enters
		return make([]T, n)
	}
	return s[:n]
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
// maintain it incrementally in InvalidateLink.
func (r *Router) recomputeSubgraphSig() {
	var sig uint64
	for id, u := range r.lastUsable {
		if u {
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
// own root, with no tail (-1).
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

// prepareDests makes every destination of the matrix current: distinct
// destinations are resolved to their roots in first-appearance order, and
// each root's valid structure is kept, a signature-matching shelved
// structure is restored, or the structure is rebuilt on the spot. Either
// way the root's current structure carries its field's stamp from then on,
// so later destinations with the same root find it valid.
//
//selfmaint:hotpath
func (r *Router) prepareDests(tm TrafficMatrix) {
	r.destSeq++
	seq := r.destSeq
	for i := range tm.Demands {
		dst := tm.Demands[i].Dst
		if r.route[dst].seq == seq {
			continue
		}
		root, tail := r.resolveRoot(dst)
		r.route[dst] = destRoute{seq: seq, root: int32(root), tail: tail}
		e := r.distEntryFor(root)
		cur := r.destCur[root]
		if cur != nil && cur.stamp == e.stamp {
			continue // still valid, or made current earlier in this call
		}
		if sh := r.destShelf[root]; sh != nil && sh.sig == r.subgraphSig {
			// The subgraph is bit-for-bit the one the shelved structure was
			// built under (identical usable set ⇒ identical distances and
			// DAG): restore it under the current field's stamp.
			sh.stamp = e.stamp
			r.destCur[root] = sh
			r.destShelf[root] = cur // may be nil
			continue
		}
		ds := r.takeState()
		r.buildDest(ds, root, e)
		r.destCur[root] = ds
		if cur != nil {
			// Demote the stale structure to the shelf: the subgraph may
			// return to its build signature (drain/undrain sweeps do).
			if old := r.destShelf[root]; old != nil {
				//lint:allow hotpathalloc free-list growth; bounded by roots, backing array retained
				r.freeStates = append(r.freeStates, old)
			}
			r.destShelf[root] = cur
		}
	}
}

// buildDest materializes root's suffix structure over distance field e.
// Devices are processed in ascending BFS distance (ties in device-ID order,
// via a counting sort), so each suffix is one link prepended to an
// already-built suffix of the next hop. Neighbor links are visited in
// adjacency order — the exact order the per-pair DFS descends — and each
// device's list is capped at maxPaths, which preserves per-pair path lists
// exactly (a consumer takes at most maxPaths suffixes from any one
// downstream device, always its first ones).
//
//selfmaint:hotpath
func (r *Router) buildDest(ds *destState, root topology.DeviceID, e distEntry) {
	b := &r.builder
	nd := len(r.net.Devices)
	ds.start = grow(ds.start, nd)
	ds.count = grow(ds.count, nd)
	ds.plen = grow(ds.plen, nd)
	transit := grow(b.transit, nd)
	b.transit = transit
	dist := e.dist
	maxd, reach := 0, 0
	for _, dd := range dist {
		if dd > maxd {
			maxd = dd
		}
		if dd >= 0 {
			reach++
		}
	}
	// Counting sort of reachable devices by distance.
	b.bucket = grow(b.bucket, maxd+1)
	for _, dd := range dist {
		if dd >= 0 {
			b.bucket[dd]++
		}
	}
	pos := int32(0)
	for k := 0; k <= maxd; k++ {
		n := b.bucket[k]
		b.bucket[k] = pos
		pos += n
	}
	if cap(b.order) < reach {
		//lint:allow hotpathalloc builder scratch growth on first use; the buffer is retained on the router, steady state allocates nothing
		b.order = make([]topology.DeviceID, reach)
	}
	order := b.order[:reach]
	for id, dd := range dist {
		if dd >= 0 {
			order[b.bucket[dd]] = topology.DeviceID(id)
			b.bucket[dd]++
		}
	}

	// First pass: every device's suffix count — its next hops' counts summed
	// in adjacency order and capped at maxPaths — and the transit marks on
	// the next hops it draws from. Only transit suffixes are materialized,
	// so the arena is sized by them, exactly once.
	total := int32(0)
	for _, d := range order {
		if d == root {
			ds.count[d] = 1 // one empty suffix: the root itself
			continue
		}
		k := int32(dist[d])
		cnt := int32(0)
		for _, np := range r.net.Neighbors(d) {
			if cnt >= maxPaths {
				break
			}
			p := np.Peer.ID
			if !r.lastUsable[np.Link.ID] || int32(dist[p]) != k-1 {
				continue
			}
			cnt = min(maxPaths, cnt+ds.count[p])
			if !transit[p] {
				transit[p] = true
				total += ds.count[p] * ds.plen[p]
			}
		}
		ds.count[d], ds.plen[d] = cnt, k
	}
	if cap(ds.arena) < int(total) {
		//lint:allow hotpathalloc arena growth; the backing array is retained on the destState and reused across rebuilds
		ds.arena = make([]int32, total)
	}
	arena := ds.arena[:total]
	// Second pass: each transit suffix is one link prepended to a next hop's
	// already-written suffix (every next hop drawn from is itself transit).
	w := int32(0)
	for _, d := range order {
		if !transit[d] {
			continue
		}
		k, left := ds.plen[d], ds.count[d]
		ds.start[d] = w
		if k == 0 {
			continue // the root's empty suffix takes no space
		}
		for _, np := range r.net.Neighbors(d) {
			if left == 0 {
				break
			}
			p := np.Peer.ID
			if !r.lastUsable[np.Link.ID] || int32(dist[p]) != k-1 {
				continue
			}
			ps := ds.start[p]
			for i := int32(0); i < ds.count[p] && left > 0; i++ {
				arena[w] = int32(np.Link.ID)
				copy(arena[w+1:w+k], arena[ps+i*(k-1):ps+(i+1)*(k-1)])
				w += k
				left--
			}
		}
	}
	ds.arena = arena
	ds.stamp = e.stamp
	ds.sig = r.subgraphSig
}
