package routing

import "math"

// Availability returns the satisfied fraction of tm's offered traffic over
// the usable subgraph: exactly the bits of EvaluateInto(ws, tm).Availability(),
// usually without computing a single link load or suffix list. It reuses ws
// as an evaluation does and, warm, allocates nothing.
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
//   - each run from a stub source adds share·n·m to the stub's link, its
//     first hop, and share·m to T(p), the total entering its peer p toward
//     the run's root; a run from any other source x adds share·m to T(x);
//   - then, for each root, its devices are taken in reverse BFS order, and
//     each device x with T(x) > 0 adds, for each of its draws (x→y, link,
//     c), T(x)·c to the link and T(x) to T(y).
//
// The last step bounds every suffix link: x's suffix list is the
// concatenation, over its draws, of the draw's link followed by y's first c
// suffixes, so the number of x's suffixes that hold a link ℓ is at most
// Σ (c·[ℓ = link] + mult_y(ℓ)), with mult_y(ℓ) the number of all of y's
// suffixes that hold ℓ. Unrolling this from the farthest device down gives
// the rule. A run from x reads only the first c of x's next hops' suffixes,
// and x only the first c of each y's, so the bound can only over-count; it
// is exact in the real numbers whenever every draw takes all of its next
// hop's suffixes. It costs one pass over each met root's draws, where the
// load pass makes, on the k=12 fat-tree, 28,500 cross-pod runs × 32 links
// × 6 additions.
//
// Rounding. Let u = 2^-53, D = len(tm.Demands) and nd the device count.
// Every operand is a nonnegative float, and a rounded sum or product of
// nonnegative operands lies within a factor (1±u) of the exact one (a sum
// below the normal range is exact, and so is a product of a float and a
// whole number there). A link takes at most n ≤ maxPaths additions per
// demand, so its computed load l̂ is a chain of N ≤ maxPaths·D additions of
// shares, and l̂ ≤ (1+u)^N·L for the real sum L ≤ B, the real bound. Every
// term of the computed bound b̂ passes through at most Q rounded operations:
//
//   - into the link, at most 2D + nd additions: one per tail, one per stub
//     first hop, and one per root, the only draw over the link toward it;
//   - one product, T(x)·c, or share·n or share·n·m for a tail or first hop;
//   - for a T(x), the additions into every T along a chain of draws, at
//     most one per run (each run adds to one T) and one per draw (at most
//     maxPaths·nd per root), after one product, share·m.
//
// So Q ≤ 3D + (maxPaths+1)·nd + 2, and b̂ ≥ (1-u)^Q·B. A link is certified
// when fl(b̂·s) ≤ cap, with s = 1 + rounds·2^-52 exact and
// rounds ≥ N + Q + 1. While rounds·u ≤ 2^-11, (1+u)^N/(1-u)^(Q+1) ≤ s, so
// l̂ ≤ (1-u)·b̂·s ≤ fl(b̂·s) ≤ cap: the load pass would find that link
// within capacity. A matrix too large for that margin falls back, as does
// any rate that is negative, NaN or infinite. Links with cap ≤ 0 are
// skipped, as EvaluateInto's MaxUtil scan skips them; a capacity outside
// [2^-1022, 2^1000] (none in any fabric) falls back, so that neither
// underflow in the check nor an overflowing load can mislead it.
//
// Every term is nonnegative, and a rounded sum or product only grows with
// its operands, so a partial bound that already fails its link's check
// proves the final one fails too: the pass falls back as soon as a tail or a
// stub's first hop does.
//
// The bound pass is serial, allocation-free when warm, and leaves no
// per-call state behind on any exit, the fallback included: its table of
// entering totals is emptied as it is read, or cleared on an early exit.
//
//selfmaint:hotpath
func (r *Router) Availability(ws *Workspace, tm TrafficMatrix) float64 {
	if a, ok := r.boundedAvailability(ws, tm); ok {
		return a
	}
	return r.EvaluateInto(ws, tm).Availability()
}

// boundedAvailability is Availability's single pass over tm's runs. It
// returns the availability of EvaluateInto's no-overload branch and true
// when the load bound proves that EvaluateInto takes that branch; otherwise
// false. On every exit but an early one, ws.linkLoad holds the bound.
//
//selfmaint:hotpath
func (r *Router) boundedAvailability(ws *Workspace, tm TrafficMatrix) (float64, bool) {
	nd := len(r.net.Devices)
	rounds := (maxPaths+3)*(len(tm.Demands)+1) + (maxPaths+1)*nd
	if rounds > 1<<42 {
		return 0, false
	}
	slack := 1 + float64(rounds)*0x1p-52
	r.destSeq++
	ws.linkLoad = grow(ws.linkLoad, len(r.net.Links))
	ws.rowOf = grow(ws.rowOf, nd)
	bound, rowOf, route := ws.linkLoad, ws.rowOf, r.route
	rows := int32(0)
	var offered, satisfied repeatSum
	var one [1]draw
	// The last run's rate bits and path count, and what they give: runs in
	// a row mostly repeat them.
	rateBits, lastN := uint64(0), int32(0)
	var share, achieved, per float64
	ok := true
walk:
	for i := 0; i < len(tm.Demands); {
		end := r.runEnd(tm.Demands, i, false)
		run := tm.Demands[i:end]
		i = end
		rate := run[0].Gbps
		if !(rate >= 0 && rate <= math.MaxFloat64) {
			ok = false
			break
		}
		offered.add(rate, len(run))
		_, n, k, segs := r.paths(run[0], &one)
		if n == 0 {
			continue
		}
		if b := math.Float64bits(rate); b != rateBits || n != lastN {
			rateBits, lastN = b, n
			share = rate / float64(n)
			achieved, per = uncongested(share, n), share*float64(n)
		}
		satisfied.add(achieved, len(run))
		for _, d := range run {
			if tail := route[d.Dst].tail; tail >= 0 {
				bound[tail] += per
				if r.overflows(bound[tail], tail, slack) {
					ok = false
					break walk
				}
			}
		}
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
		m := len(run)
		entering := share * float64(m)
		src := int32(run[0].Src)
		if r.isStub(src) {
			s := segs[0]
			bound[s.link] += share * float64(int(s.c)*m)
			if r.overflows(bound[s.link], s.link, slack) {
				ok = false
				break
			}
			src = s.peer
		}
		ws.enters[row+int(src)] += entering
	}
	// Propagate each root's entering totals down its draws, emptying the
	// table; an early exit only empties it.
	for root, row := range rowOf {
		if row == 0 {
			continue
		}
		rowOf[root] = 0
		enter := ws.enters[int(row-1)*nd : int(row)*nd]
		if !ok {
			clear(enter)
			continue
		}
		ds := r.destCur[root]
		for i := len(ds.order) - 1; i > 0; i-- {
			x := ds.order[i]
			t := enter[x]
			if t == 0 {
				continue
			}
			enter[x] = 0
			for _, d := range ds.drawsOf(x) {
				bound[d.link] += t * float64(d.c)
				enter[d.peer] += t
			}
		}
		enter[root] = 0
	}
	if !ok {
		return 0, false
	}
	for id, b := range bound {
		if !r.fits(b, int32(id), slack) {
			return 0, false
		}
	}
	off := offered.sum()
	if off == 0 {
		return 1, true
	}
	return satisfied.sum() / off, true
}

// fits reports whether link id, with load bound b, is certified within its
// capacity under margin slack (see Availability). A link with capacity
// ≤ 0 always fits: EvaluateInto's overload scan skips it.
//
//selfmaint:hotpath
func (r *Router) fits(b float64, id int32, slack float64) bool {
	cap := r.capacity[id]
	return cap <= 0 || cap >= 0x1p-1022 && cap <= 0x1p1000 && b*slack <= cap
}

// overflows reports whether a partial bound b of link id already fails
// fits: b·slack above a positive capacity. Every later term only adds to
// b, so the final bound would fail too. It runs once per demand, where the
// whole of fits, range checks included, made the warm k=12 sample 15–20%
// slower; a capacity out of range fails fits at the end anyway.
//
//selfmaint:hotpath
func (r *Router) overflows(b float64, id int32, slack float64) bool {
	cap := r.capacity[id]
	return b*slack > cap && cap > 0
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
