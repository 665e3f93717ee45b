package routing

import (
	"math"

	"repro/internal/topology"
)

// LossFn reports the current packet-loss fraction on a link (0 for clean
// links; telemetry's loss EWMA for flapping ones).
type LossFn func(topology.LinkID) float64

// LatencyModel converts path structure, utilization and flap loss into
// latency percentiles. The paper's point (§1) is that layers retransmit
// around flapping links, so the cost of a gray failure appears in the tail,
// not the median — the model makes that mechanism explicit:
//
//   - base latency: per-hop propagation+forwarding, inflated by an M/M/1
//     style queueing factor at each hop's utilization;
//   - tail: each traversal is lost with the path's combined loss
//     probability and retried after RTO; the q-quantile adds RTO times the
//     q-quantile of the geometric retry count.
type LatencyModel struct {
	HopMicros float64 // per-hop service+propagation, microseconds
	RTOMillis float64 // retransmission timeout, milliseconds
	MaxQueueU float64 // utilization clamp for the queueing factor
}

// DefaultLatencyModel returns datacenter-plausible constants (5 us hops,
// 4 ms RTO).
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{HopMicros: 5, RTOMillis: 4, MaxQueueU: 0.95}
}

// Percentiles carries latency quantiles in microseconds.
type Percentiles struct {
	P50, P99, P999 float64
}

// PathLatency evaluates the model for one path given per-link utilization
// (load/capacity, from an Assessment) and per-link loss.
func (lm LatencyModel) PathLatency(path topology.Path, util func(topology.LinkID) float64, loss LossFn) Percentiles {
	base := 0.0
	ploss := 0.0
	keep := 1.0
	for _, l := range path {
		u := 0.0
		if util != nil {
			u = util(l.ID)
		}
		if u > lm.MaxQueueU {
			u = lm.MaxQueueU
		}
		if u < 0 {
			u = 0
		}
		base += lm.HopMicros / (1 - u)
		if loss != nil {
			keep *= 1 - clampLoss(loss(l.ID))
		}
	}
	ploss = 1 - keep
	return Percentiles{
		P50:  base + lm.retries(ploss, 0.50),
		P99:  base + lm.retries(ploss, 0.99),
		P999: base + lm.retries(ploss, 0.999),
	}
}

// retries returns the added microseconds at quantile q from geometric
// retransmissions with per-try loss p: the number of retries at quantile q
// is the smallest k with p^k <= 1-q.
func (lm LatencyModel) retries(p, q float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		p = 0.999999
	}
	// The retry count R satisfies P(R >= k) = p^k; the q-quantile is the
	// smallest k with 1 - p^(k+1) >= q.
	k := math.Ceil(math.Log(1-q)/math.Log(p)) - 1
	if k < 0 {
		k = 0
	}
	return k * lm.RTOMillis * 1000
}

func clampLoss(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 0.999 {
		return 0.999
	}
	return v
}

// WorstPairLatency evaluates the model over every demand of a matrix using
// the router's current paths and an assessment's loads, returning the worst
// P99 and P999 observed — the fabric-level tail a flapping link creates.
//
// Paths are read off the destination-rooted structures as EvaluateInto
// reads them: for each segment of the source, in order, the first hop to
// its next hop followed by each of the first c of the next hop's suffixes
// toward the destination's root, and then the destination's tail, if it
// has one; a source at the root has one path, the tail alone. Each path is
// copied into one reused buffer, so PathLatency sees the links of every
// per-pair path in order — the tail last, since PathLatency folds in path
// order.
func (lm LatencyModel) WorstPairLatency(r *Router, tm TrafficMatrix, a Assessment, loss LossFn) Percentiles {
	util := func(id topology.LinkID) float64 {
		cap := r.net.Links[id].GbpsCap
		if cap <= 0 {
			return 0
		}
		return a.LinkLoad[id] / cap
	}
	r.destSeq++
	var worst Percentiles
	var path topology.Path
	var one [1]draw
	visit := func() {
		pc := lm.PathLatency(path, util, loss)
		worst.P50 = max(worst.P50, pc.P50)
		worst.P99 = max(worst.P99, pc.P99)
		worst.P999 = max(worst.P999, pc.P999)
	}
	for _, d := range tm.Demands {
		if d.Src == d.Dst {
			continue
		}
		tail := r.current(d.Dst, true).tail
		ds, n, k, segs := r.paths(d, &one)
		if n == 0 {
			continue
		}
		if k == 0 {
			path = append(path[:0], r.net.Links[tail]) // a source at the root
			visit()
			continue
		}
		for _, sg := range segs {
			for s, c := ds.start[sg.peer], sg.c; c > 0; c-- {
				path = append(path[:0], r.net.Links[sg.link])
				for _, l := range ds.arena[s : s+k-1] {
					path = append(path, r.net.Links[l])
				}
				if tail >= 0 {
					path = append(path, r.net.Links[tail])
				}
				s += k - 1
				visit()
			}
		}
	}
	return worst
}
