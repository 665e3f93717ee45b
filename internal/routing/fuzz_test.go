package routing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// fuzzRates is the rate set fuzzed demands draw from, in Gbps: on the k=4
// fat-tree (100 Gbps host links) the small rates fit and the large ones
// overload.
var fuzzRates = [...]float64{5, 40, 100, 250}

// decodeFuzz reads fuzz bytes as drained links and a traffic matrix on net.
// The first byte gives the number of drains (mod 5), and each drain's byte
// picks a link. Every following 3-byte group is one demand: its source
// device, destination device and rate, each taken modulo its set. At most
// 64 demands are read.
func decodeFuzz(net *topology.Network, data []byte) ([]topology.LinkID, TrafficMatrix) {
	tm := TrafficMatrix{Name: "fuzz"}
	if len(data) == 0 {
		return nil, tm
	}
	nd := min(int(data[0])%5, len(data)-1)
	var drains []topology.LinkID
	for _, b := range data[1 : 1+nd] {
		drains = append(drains, topology.LinkID(int(b)%len(net.Links)))
	}
	nds := topology.DeviceID(len(net.Devices))
	for rest := data[1+nd:]; len(rest) >= 3 && len(tm.Demands) < 64; rest = rest[3:] {
		tm.Demands = append(tm.Demands, Demand{
			Src:  topology.DeviceID(rest[0]) % nds,
			Dst:  topology.DeviceID(rest[1]) % nds,
			Gbps: fuzzRates[int(rest[2])%len(fuzzRates)],
		})
	}
	return drains, tm
}

// fuzzDemand is one seed demand: its source, destination and index into
// fuzzRates.
type fuzzDemand struct {
	src, dst topology.DeviceID
	rate     int
}

// fuzzInput encodes drains and demands in decodeFuzz's format.
func fuzzInput(drains []topology.LinkID, demands ...fuzzDemand) []byte {
	b := []byte{byte(len(drains))}
	for _, id := range drains {
		b = append(b, byte(id))
	}
	for _, d := range demands {
		b = append(b, byte(d.src), byte(d.dst), byte(d.rate))
	}
	return b
}

// FuzzEvaluateMatchesSpec checks EvaluateInto against its executable
// specification on arbitrary small matrices: up to 4 drained links and up
// to 64 demands between any devices of the k=4 fat-tree, at rates that fit
// and rates that overload. The Assessment must equal referenceEvaluate over
// the spec paths exactly, and Availability, on a fresh router and on the
// same router after EvaluateInto, must return the reference's availability
// bit for bit; the rates put matrices below, at and above capacity, so
// both the bound's answer and its fallback are fuzzed. The fresh router
// then runs EvaluateInto too, which must equal the reference: a root the
// bound prepared without suffix arenas must be materialized correctly. The seeds cover the
// uniform order, a run whose rate changes, a self-pair inside a run and a
// duplicated demand.
func FuzzEvaluateMatchesSpec(f *testing.F) {
	net := buildTopo(f, "fattree")
	hosts := net.Hosts()
	h := func(i int) topology.DeviceID { return hosts[i].ID }
	edge := func(i int) topology.DeviceID { return net.Neighbors(h(i))[0].Peer.ID }
	fabric := net.SwitchLinks()

	var uniform []fuzzDemand
	for s := range 4 {
		for d := range hosts {
			if d != s {
				uniform = append(uniform, fuzzDemand{h(s), h(d), 1})
			}
		}
	}
	f.Add(fuzzInput(nil, uniform...))
	f.Add(fuzzInput(nil,
		fuzzDemand{h(0), h(4), 1}, fuzzDemand{h(0), h(5), 2},
		fuzzDemand{h(0), h(4), 1}, fuzzDemand{h(1), h(5), 0},
		fuzzDemand{h(1), h(4), 3}))
	f.Add(fuzzInput([]topology.LinkID{fabric[0].ID},
		fuzzDemand{h(0), h(1), 2}, fuzzDemand{h(0), h(0), 2},
		fuzzDemand{h(0), edge(0), 2}, fuzzDemand{h(2), h(0), 1}))
	f.Add(fuzzInput([]topology.LinkID{fabric[len(fabric)-1].ID},
		fuzzDemand{h(0), h(5), 1}, fuzzDemand{h(0), h(5), 1},
		fuzzDemand{h(0), h(4), 1}, fuzzDemand{h(1), h(4), 3},
		fuzzDemand{h(2), h(4), 3}, fuzzDemand{edge(1), h(1), 2}))

	f.Fuzz(func(t *testing.T, data []byte) {
		drains, tm := decodeFuzz(net, data)
		if len(tm.Demands) == 0 {
			return
		}
		r, fresh := NewRouter(net, nil), NewRouter(net, nil)
		for _, id := range drains {
			r.Drain(id)
			fresh.Drain(id)
		}
		var ws, freshWS Workspace
		first := fresh.Availability(&freshWS, tm)
		got := r.EvaluateInto(&ws, tm)
		want := referenceEvaluate(net, tm, specMatrixPaths(r, tm))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drains %v, demands %v: engine %v != per-pair reference %v", drains, tm.Demands, got, want)
		}
		bits := math.Float64bits(want.Availability())
		if after := r.Availability(&ws, tm); math.Float64bits(first) != bits || math.Float64bits(after) != bits {
			t.Fatalf("drains %v, demands %v: Availability %v on a fresh router, %v after EvaluateInto, reference %v",
				drains, tm.Demands, first, after, want.Availability())
		}
		if got := fresh.EvaluateInto(&freshWS, tm); !reflect.DeepEqual(got, want) {
			t.Fatalf("drains %v, demands %v: engine after Availability %v != per-pair reference %v", drains, tm.Demands, got, want)
		}
	})
}
