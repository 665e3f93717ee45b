package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file implements a stable JSON wire form for networks so external
// tooling (dashboards, the maintctl CLI, test fixtures) can consume and
// reconstruct fabric structure. Dynamic state is never serialized — the
// wire form is the static plant only.

// netJSON is the serialized form.
type netJSON struct {
	Name    string       `json:"name"`
	Devices []deviceJSON `json:"devices"`
	Links   []linkJSON   `json:"links"`
}

type deviceJSON struct {
	Name  string `json:"name"`
	Kind  uint8  `json:"kind"`
	Row   int    `json:"row"`
	Rack  int    `json:"rack"`
	RU    int    `json:"ru"`
	Face  uint8  `json:"face"`
	Ports int    `json:"ports"`
}

type linkJSON struct {
	A         int     `json:"a_dev"`
	APort     int     `json:"a_port"`
	BDev      int     `json:"b_dev"`
	BPort     int     `json:"b_port"`
	Class     uint8   `json:"class"`
	Gbps      float64 `json:"gbps"`
	Redundant bool    `json:"redundant,omitempty"`
}

// MarshalJSON implements json.Marshaler for Network.
func (n *Network) MarshalJSON() ([]byte, error) {
	out := netJSON{Name: n.Name}
	for _, d := range n.Devices {
		out.Devices = append(out.Devices, deviceJSON{
			Name: d.Name, Kind: uint8(d.Kind),
			Row: d.Loc.Row, Rack: d.Loc.Rack, RU: d.Loc.RU, Face: uint8(d.Loc.Face),
			Ports: len(d.Ports),
		})
	}
	for _, l := range n.Links {
		out.Links = append(out.Links, linkJSON{
			A:         int(l.A.Device.ID),
			APort:     l.A.Index,
			BDev:      int(l.B.Device.ID),
			BPort:     l.B.Index,
			Class:     uint8(l.Cable.Class),
			Gbps:      l.GbpsCap,
			Redundant: l.Redundant,
		})
	}
	return json.Marshal(out)
}

// DecodeNetwork reconstructs a network from its wire form: devices are
// re-created at their locations, links re-connected with their recorded
// cable classes and capacities, and the layout re-derives cable runs and
// tray occupancy (those are functions of geometry, not serialized state).
func DecodeNetwork(r io.Reader) (*Network, error) {
	var in netJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	n := New(in.Name)
	for i, d := range in.Devices {
		if d.Ports < 0 {
			return nil, fmt.Errorf("topology: device %d has negative ports", i)
		}
		n.AddDevice(d.Name, DeviceKind(d.Kind), Location{
			Row: d.Row, Rack: d.Rack, RU: d.RU, Face: Face(d.Face),
		}, d.Ports)
	}
	for i, l := range in.Links {
		if l.A < 0 || l.A >= len(n.Devices) || l.BDev < 0 || l.BDev >= len(n.Devices) {
			return nil, fmt.Errorf("topology: link %d references unknown device", i)
		}
		da, db := n.Devices[l.A], n.Devices[l.BDev]
		if l.APort < 0 || l.APort >= len(da.Ports) || l.BPort < 0 || l.BPort >= len(db.Ports) {
			return nil, fmt.Errorf("topology: link %d references unknown port", i)
		}
		pa, pb := da.Ports[l.APort], db.Ports[l.BPort]
		if pa.Link != nil || pb.Link != nil {
			return nil, fmt.Errorf("topology: link %d reuses a connected port", i)
		}
		nl := n.Connect(pa, pb, CableClass(l.Class), l.Gbps)
		nl.Redundant = l.Redundant
	}
	return n, nil
}
