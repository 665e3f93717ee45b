package routing

import "math"

// Availability returns the satisfied fraction of tm's offered traffic over
// the usable subgraph: exactly the bits of EvaluateInto(ws, tm).Availability(),
// usually without computing a single link load. It reuses ws as an
// evaluation does and, warm, allocates nothing.
//
// Why the fast answer is exact. EvaluateInto takes its no-overload branch
// (MaxUtil ≤ 1) exactly when no link's computed load exceeds its capacity:
// division rounds correctly, so l ≤ cap gives l/cap ≤ 1. In that branch a
// run's achieved rate is its share added n times (uncongested), and the
// satisfied total is those rates, in run order, through a repeatSum; no load
// enters it. One pass over the runs computes that total, the offered total
// as EvaluateInto sums it, and an upper bound on every link's load. When
// the bound keeps every link within capacity, the branch is certain and its
// answer is returned; otherwise Availability falls back to EvaluateInto.
//
// The bound, per link, is never less than the real sum of the shares the
// load pass adds to it:
//
//   - each demand adds share·n to its tail, which takes its n additions;
//   - each run adds share·c·m to each first hop, which takes c·m;
//   - for each root and each next hop p, the share·m of every run entering
//     p is summed once, and the sum is added to every link occurrence in
//     all count[p] of p's suffixes. A run reads only the first c of them,
//     so this can only over-count.
//
// Pushing per (root, p) instead of per run is what makes the bound cheap:
// on the k=12 fat-tree, about 5,200 pushes of 32 links each, where the load
// pass makes 28,500 cross-pod runs × 32 links × 6 additions.
//
// Rounding. Let u = 2^-53 and D = len(tm.Demands). Every operand is a
// nonnegative float, and a rounded sum or product of nonnegative operands
// lies within a factor (1±u) of the exact one (a sum below the normal range
// is exact, and so is a product of a share and a whole number there). A
// link takes at most n ≤ maxPaths additions per demand, so its computed
// load l̂ is a chain of N ≤ maxPaths·D additions of shares, and
// l̂ ≤ (1+u)^N·L for the real sum L ≤ B, the real bound. The computed bound
// b̂ is built by chains of at most Q ≤ (maxPaths² + 3)·D + 1 rounded
// operations — a product, up to D additions into a (root, p) sum, and at
// most D tail, D first-hop and maxPaths²·D suffix pushes into the link —
// so b̂ ≥ (1-u)^Q·B. A link is certified when fl(b̂·s) ≤ cap, with
// s = 1 + rounds·2^-52 exact and rounds ≥ N + Q + 1. While rounds·u ≤ 2^-11,
// (1+u)^N/(1-u)^(Q+1) ≤ s, so l̂ ≤ (1-u)·b̂·s ≤ fl(b̂·s) ≤ cap: the load pass
// would find that link within capacity. A matrix too large for that margin
// falls back, as does any rate that is negative, NaN or infinite. Links with
// cap ≤ 0 are skipped, as EvaluateInto's MaxUtil scan skips them; a
// capacity outside [2^-1022, 2^1000] (none in any fabric) falls back, so
// that neither underflow in the check nor an overflowing load can mislead
// it.
//
// The bound pass is serial, allocation-free when warm, and leaves no
// per-call state behind on any exit, the fallback included: its (root, p)
// table is emptied as it is read.
//
//selfmaint:hotpath
func (r *Router) Availability(ws *Workspace, tm TrafficMatrix) float64 {
	r.prepareDests(tm)
	if a, ok := r.boundedAvailability(ws, tm); ok {
		return a
	}
	return r.EvaluateInto(ws, tm).Availability()
}

// boundedAvailability is Availability's single pass over tm's runs, whose
// destinations prepareDests has made current. It returns the availability
// of EvaluateInto's no-overload branch and true when the load bound proves
// that EvaluateInto takes that branch; otherwise false.
//
//selfmaint:hotpath
func (r *Router) boundedAvailability(ws *Workspace, tm TrafficMatrix) (float64, bool) {
	rounds := (maxPaths*maxPaths + maxPaths + 4) * (len(tm.Demands) + 1)
	if rounds > 1<<42 {
		return 0, false
	}
	nd := len(r.net.Devices)
	ws.linkLoad = grow(ws.linkLoad, len(r.net.Links))
	ws.rowOf = grow(ws.rowOf, nd)
	bound, rowOf, route := ws.linkLoad, ws.rowOf, r.route
	rows := int32(0)
	var offered, satisfied repeatSum
	ok := true
	for i := 0; i < len(tm.Demands); {
		end := r.runEnd(tm.Demands, i)
		run := tm.Demands[i:end]
		i = end
		rate := run[0].Gbps
		if !(rate >= 0 && rate <= math.MaxFloat64) {
			ok = false
			break
		}
		offered.add(rate, len(run))
		ds, _, n := r.routeCount(run[0])
		if n == 0 {
			continue
		}
		share := rate / float64(n)
		satisfied.add(uncongested(share, n), len(run))
		per := share * float64(n)
		for _, d := range run {
			if tail := route[d.Dst].tail; tail >= 0 {
				bound[tail] += per
			}
		}
		k := ds.plen[run[0].Src]
		if k == 0 {
			continue // a source at the root: its one path is the tail
		}
		root := route[run[0].Dst].root
		if rowOf[root] == 0 {
			rows++
			rowOf[root] = rows
			ws.growEnters(int(rows) * nd)
		}
		row := int(rowOf[root]-1) * nd
		sums := ws.enters[row : row+nd]
		m := len(run)
		entering := share * float64(m)
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
			bound[np.Link.ID] += share * float64(int(c)*m)
			sums[p] += entering
		}
	}
	// Push each (root, p) sum to every link of p's suffixes, emptying the
	// table on every exit.
	for root, row := range rowOf {
		if row == 0 {
			continue
		}
		rowOf[root] = 0
		ds := r.destCur[root]
		sums := ws.enters[int(row-1)*nd : int(row)*nd]
		for p, s := range sums {
			if s == 0 {
				continue
			}
			sums[p] = 0
			st, l := ds.start[p], ds.plen[p]
			for _, id := range ds.arena[st : st+ds.count[p]*l] {
				bound[id] += s
			}
		}
	}
	if !ok {
		return 0, false
	}
	slack := 1 + float64(rounds)*0x1p-52
	for id, b := range bound {
		cap := r.net.Links[id].GbpsCap
		if cap <= 0 {
			continue
		}
		if !(cap >= 0x1p-1022 && cap <= 0x1p1000 && b*slack <= cap) {
			return 0, false
		}
	}
	off := offered.sum()
	if off == 0 {
		return 1, true
	}
	return satisfied.sum() / off, true
}

// growEnters gives ws.enters length n, keeping the rows already in use. The
// table is all zero between calls, so rows exposed without reallocation are
// zero too.
func (ws *Workspace) growEnters(n int) {
	if n > cap(ws.enters) {
		//lint:allow hotpathalloc grows to the matrix's root count once; the table is retained on the workspace
		t := make([]float64, n, max(n, 2*cap(ws.enters)))
		copy(t, ws.enters)
		ws.enters = t
	}
	ws.enters = ws.enters[:n]
}
