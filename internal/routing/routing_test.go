package routing

import (
	"math"
	"testing"

	"repro/internal/topology"
)

func leafSpine(t *testing.T, leaves, spines, hosts, uplinks int) *topology.Network {
	t.Helper()
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts, Uplinks: uplinks,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEvaluateHealthyFabricSatisfiesModestLoad(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 200)
	a := evaluate(r, tm)
	if a.Availability() < 0.999 {
		t.Fatalf("availability %v on an uncongested fabric", a.Availability())
	}
	if a.Unreachable != 0 {
		t.Fatalf("unreachable = %d", a.Unreachable)
	}
	if a.MaxUtil <= 0 {
		t.Fatal("no load recorded")
	}
	if a.String() == "" {
		t.Error("empty assessment string")
	}
}

func TestOverloadReducesSatisfaction(t *testing.T) {
	n := leafSpine(t, 2, 1, 2, 1) // single spine: leaf uplinks are 400G each
	r := NewRouter(n, nil)
	// Cross-leaf offered load far beyond uplink capacity.
	hosts := n.Hosts()
	var tm TrafficMatrix
	tm.Demands = append(tm.Demands,
		Demand{Src: hosts[0].ID, Dst: hosts[2].ID, Gbps: 600},
		Demand{Src: hosts[1].ID, Dst: hosts[3].ID, Gbps: 600},
	)
	a := evaluate(r, tm)
	if a.Availability() > 0.95 {
		t.Fatalf("availability %v despite 3x uplink overload", a.Availability())
	}
	if a.MaxUtil < 1.5 {
		t.Fatalf("maxutil = %v", a.MaxUtil)
	}
	// Satisfied load cannot exceed capacity constraints wildly: each demand
	// achieved <= offered.
	for i, s := range a.PerDemand {
		if s > 1+1e-9 || s < 0 {
			t.Fatalf("demand %d satisfaction %v", i, s)
		}
	}
}

func TestLinkFailureForcesReroute(t *testing.T) {
	n := leafSpine(t, 2, 2, 2, 1)
	down := map[topology.LinkID]bool{}
	r := NewRouter(n, func(id topology.LinkID) bool { return !down[id] })
	tm := UniformMatrix(n, 100)

	before := evaluate(r, tm)
	if before.Availability() < 0.999 {
		t.Fatal("unhealthy baseline")
	}
	// Kill one leaf uplink: traffic shifts to the other spine.
	var uplink *topology.Link
	for _, l := range n.SwitchLinks() {
		uplink = l
		break
	}
	down[uplink.ID] = true
	r.Invalidate()
	after := evaluate(r, tm)
	if after.Availability() < 0.999 {
		t.Fatalf("availability %v after single uplink loss with a spare spine", after.Availability())
	}
	if after.LinkLoad[uplink.ID] != 0 {
		t.Fatal("failed link still carries load")
	}
}

func TestDrainMovesTraffic(t *testing.T) {
	n := leafSpine(t, 2, 2, 2, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 100)
	var uplink *topology.Link
	for _, l := range n.SwitchLinks() {
		uplink = l
		break
	}
	r.Drain(uplink.ID)
	if !r.Drained(uplink.ID) || drainedCount(r) != 1 {
		t.Fatal("drain bookkeeping")
	}
	a := evaluate(r, tm)
	if a.LinkLoad[uplink.ID] != 0 {
		t.Fatal("drained link still carries load")
	}
	if a.Availability() < 0.999 {
		t.Fatalf("drain collapsed availability: %v", a.Availability())
	}
	r.Undrain(uplink.ID)
	a = evaluate(r, tm)
	if a.LinkLoad[uplink.ID] == 0 {
		t.Fatal("undrained link carries no load")
	}
}

func TestIsolatedLeafUnreachable(t *testing.T) {
	n := leafSpine(t, 2, 2, 1, 1)
	down := map[topology.LinkID]bool{}
	r := NewRouter(n, func(id topology.LinkID) bool { return !down[id] })
	// Cut both uplinks of leaf0.
	leaf0 := n.DevicesOfKind(topology.LeafSwitch)[0]
	for _, np := range n.Neighbors(leaf0.ID) {
		if np.Peer.Kind == topology.SpineSwitch {
			down[np.Link.ID] = true
		}
	}
	r.Invalidate()
	tm := UniformMatrix(n, 100)
	a := evaluate(r, tm)
	if a.Unreachable == 0 {
		t.Fatal("no unreachable demands after isolating a leaf")
	}
	if a.Availability() > 0.99 {
		t.Fatalf("availability %v with an isolated leaf", a.Availability())
	}
}

func TestMatrices(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	hosts := len(n.Hosts())

	u := UniformMatrix(n, 160)
	if len(u.Demands) != hosts*(hosts-1) {
		t.Fatalf("uniform demands = %d", len(u.Demands))
	}
	if math.Abs(u.TotalGbps()-160) > 1e-6 {
		t.Fatalf("uniform total = %v", u.TotalGbps())
	}

	if u.String() == "" {
		t.Error("matrix string")
	}
}

func TestLatencyModelTail(t *testing.T) {
	n := leafSpine(t, 2, 2, 2, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 100)
	a := evaluate(r, tm)
	lm := DefaultLatencyModel()

	clean := lm.WorstPairLatency(r, tm, a, nil)
	if clean.P50 <= 0 {
		t.Fatal("zero base latency")
	}
	if clean.P99 != clean.P50 {
		t.Fatalf("clean fabric has retransmission tail: %+v", clean)
	}

	// A flapping uplink with 20% loss creates a tail but barely moves p50.
	var uplink *topology.Link
	for _, l := range n.SwitchLinks() {
		uplink = l
		break
	}
	lossy := lm.WorstPairLatency(r, tm, a, func(id topology.LinkID) float64 {
		if id == uplink.ID {
			return 0.2
		}
		return 0
	})
	if lossy.P999 <= lossy.P99 || lossy.P99 <= clean.P99 {
		t.Fatalf("loss did not inflate the tail: %+v", lossy)
	}
	if lossy.P50 != clean.P50 {
		t.Fatalf("20%% loss moved p50: %+v vs %+v", lossy, clean)
	}
}

func TestLatencyRetriesEdgeCases(t *testing.T) {
	lm := DefaultLatencyModel()
	if lm.retries(0, 0.99) != 0 {
		t.Fatal("no loss should add no retries")
	}
	if lm.retries(1.5, 0.99) <= 0 {
		t.Fatal("saturated loss should add retries")
	}
	if clampLoss(-1) != 0 || clampLoss(2) != 0.999 {
		t.Fatal("clampLoss")
	}
	// Higher quantiles never need fewer retries.
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		if lm.retries(p, 0.999) < lm.retries(p, 0.99) {
			t.Fatalf("retries not monotone in q at p=%v", p)
		}
	}
	// Higher loss never needs fewer retries at fixed quantile.
	prev := -1.0
	for _, p := range []float64{0.01, 0.1, 0.3, 0.6, 0.9} {
		r := lm.retries(p, 0.99)
		if r < prev {
			t.Fatalf("retries not monotone in p")
		}
		prev = r
	}
}

func TestQueueingInflatesBase(t *testing.T) {
	n := leafSpine(t, 2, 1, 1, 1)
	lm := DefaultLatencyModel()
	hosts := n.Hosts()
	r := NewRouter(n, nil)
	paths := specPaths(r, specField(r, hosts[1].ID), hosts[0].ID, hosts[1].ID)
	if len(paths) == 0 {
		t.Fatal("no path")
	}
	idle := lm.PathLatency(paths[0], nil, nil)
	busy := lm.PathLatency(paths[0], func(topology.LinkID) float64 { return 0.9 }, nil)
	if busy.P50 <= idle.P50*5 {
		t.Fatalf("90%% utilization did not inflate latency: %v vs %v", busy.P50, idle.P50)
	}
	over := lm.PathLatency(paths[0], func(topology.LinkID) float64 { return 3 }, nil)
	if math.IsInf(over.P50, 0) || over.P50 <= 0 {
		t.Fatalf("clamp failed: %v", over.P50)
	}
}
