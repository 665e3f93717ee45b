package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Demand is one host-to-host traffic demand.
type Demand struct {
	Src, Dst topology.DeviceID
	Gbps     float64
}

// TrafficMatrix is a set of demands, evaluated together.
type TrafficMatrix struct {
	Name    string
	Demands []Demand
}

// TotalGbps sums the offered load.
func (tm TrafficMatrix) TotalGbps() float64 {
	var t float64
	for _, d := range tm.Demands {
		t += d.Gbps
	}
	return t
}

// String summarizes the matrix.
func (tm TrafficMatrix) String() string {
	return fmt.Sprintf("%s: %d demands, %.0fG", tm.Name, len(tm.Demands), tm.TotalGbps())
}

// UniformMatrix spreads totalGbps evenly over all ordered host pairs —
// the classic all-to-all stress matrix.
func UniformMatrix(net *topology.Network, totalGbps float64) TrafficMatrix {
	hosts := net.Hosts()
	n := len(hosts)
	if n < 2 {
		return TrafficMatrix{Name: "uniform"}
	}
	per := totalGbps / float64(n*(n-1))
	tm := TrafficMatrix{Name: "uniform", Demands: make([]Demand, 0, n*(n-1))}
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				tm.Demands = append(tm.Demands, Demand{Src: s.ID, Dst: d.ID, Gbps: per})
			}
		}
	}
	return tm
}
