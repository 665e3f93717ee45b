// Package topology models the static structure of a datacenter network:
// devices, ports, transceivers, cables and links, together with the physical
// plant they live in (halls, rows, racks, rack units, cable trays).
//
// The package is deliberately free of dynamic state. Link health, traffic
// and repair state are owned by other packages and stored densely by the
// integer IDs issued here, so a Network value can be shared read-only by
// every subsystem of a simulation.
package topology

import (
	"fmt"
)

// DeviceID identifies a device within one Network. IDs are dense, starting
// at zero, so per-device state can live in slices.
type DeviceID int

// PortID identifies a port within one Network. IDs are dense and global
// across all devices.
type PortID int

// LinkID identifies a link within one Network. IDs are dense.
type LinkID int

// DeviceKind classifies a device by its role in the fabric.
type DeviceKind uint8

// Device kinds, from the edge upward.
const (
	Server DeviceKind = iota
	GPUServer
	LeafSwitch // top-of-rack
	AggSwitch  // aggregation / pod layer
	SpineSwitch
	CoreSwitch
	RailSwitch // rail-optimized AI fabrics
)

var deviceKindNames = [...]string{
	Server:      "server",
	GPUServer:   "gpu-server",
	LeafSwitch:  "leaf",
	AggSwitch:   "agg",
	SpineSwitch: "spine",
	CoreSwitch:  "core",
	RailSwitch:  "rail",
}

// String returns the lowercase kind name.
func (k DeviceKind) String() string {
	if int(k) < len(deviceKindNames) {
		return deviceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsSwitch reports whether the kind forwards traffic (anything that is not
// an end host).
func (k DeviceKind) IsSwitch() bool { return k != Server && k != GPUServer }

// Device is a network element: a server NIC-side host or a switch.
type Device struct {
	ID    DeviceID
	Name  string
	Kind  DeviceKind
	Loc   Location
	Ports []*Port
}

// String returns the device name.
func (d *Device) String() string { return d.Name }

// Port is one pluggable network port on a device. Its transceiver (if the
// attached medium needs one) is mutable: repairs replace transceivers.
type Port struct {
	ID     PortID
	Device *Device
	Index  int // position on the device's panel, 0-based
	Link   *Link
	Xcvr   *Transceiver // nil for ports using DAC or empty ports

	name string // memoized Name; identity is immutable after construction
}

// Name returns "device/pN".
func (p *Port) Name() string {
	if p.name == "" {
		p.name = fmt.Sprintf("%s/p%d", p.Device.Name, p.Index)
	}
	return p.name
}

// Link is a bidirectional physical link: two ports joined by a cable, with
// transceivers at the ends where the medium requires them.
type Link struct {
	ID        LinkID
	A, B      *Port
	Cable     *Cable
	GbpsCap   float64 // capacity per direction
	Redundant bool    // marked as an intentionally redundant/spare link

	name string // memoized Name; endpoints are immutable after construction
}

// Name returns "a<->b" using the endpoint port names.
func (l *Link) Name() string {
	if l.name == "" {
		l.name = l.A.Name() + "<->" + l.B.Name()
	}
	return l.name
}

// HasSeparableFiber reports whether the link's cable detaches from its
// transceivers in the field (LC/MPO trunk fiber), which is what makes
// end-face cleaning a distinct repair action.
func (l *Link) HasSeparableFiber() bool { return l.Cable != nil && l.Cable.Class.Separable() }

// Network is an immutable-after-build datacenter network: all devices,
// ports and links plus the physical layout. Build one with a builder
// (NewFatTree, NewLeafSpine, NewJellyfish, NewXpander, NewAICluster) or
// assemble one manually with AddDevice/Connect for tests.
type Network struct {
	Name    string
	Devices []*Device
	Ports   []*Port
	Links   []*Link
	Layout  *Layout

	adj [][]LinkPeer // by DeviceID
}

// New returns an empty network with the given name and a default layout.
func New(name string) *Network {
	return &Network{Name: name, Layout: NewLayout(DefaultLayoutSpec())}
}

// AddDevice creates a device with n ports at the given location.
func (n *Network) AddDevice(name string, kind DeviceKind, loc Location, ports int) *Device {
	d := &Device{ID: DeviceID(len(n.Devices)), Name: name, Kind: kind, Loc: loc}
	d.Ports = make([]*Port, ports)
	for i := range d.Ports {
		p := &Port{ID: PortID(len(n.Ports)), Device: d, Index: i}
		d.Ports[i] = p
		n.Ports = append(n.Ports, p)
	}
	n.Devices = append(n.Devices, d)
	n.adj = append(n.adj, nil)
	return d
}

// FreePort returns d's lowest-index unconnected port, or nil if none.
func (n *Network) FreePort(d *Device) *Port {
	for _, p := range d.Ports {
		if p.Link == nil {
			return p
		}
	}
	return nil
}

// Connect joins two free ports with a cable of the given class and capacity,
// creating transceivers as the medium requires, and registers the cable's
// physical run with the layout. It panics if either port is already linked —
// always a builder bug.
func (n *Network) Connect(a, b *Port, class CableClass, gbps float64) *Link {
	if a.Link != nil || b.Link != nil {
		panic(fmt.Sprintf("topology: connect %s-%s: port already linked", a.Name(), b.Name()))
	}
	length := n.Layout.CableLength(a, b)
	cable := &Cable{
		Class:   class,
		Cores:   class.DefaultCores(gbps),
		APC:     class == FiberMPO, // MPO trunks here use 8-degree APC end-faces
		LengthM: length,
	}
	l := &Link{ID: LinkID(len(n.Links)), A: a, B: b, Cable: cable, GbpsCap: gbps}
	if class.NeedsTransceiver() {
		a.Xcvr = NewTransceiver(PickModel(class, gbps, len(n.Links)))
		b.Xcvr = NewTransceiver(PickModel(class, gbps, len(n.Links)+1))
	}
	a.Link, b.Link = l, l
	n.Links = append(n.Links, l)
	n.adj[a.Device.ID] = append(n.adj[a.Device.ID], LinkPeer{l, b.Device})
	n.adj[b.Device.ID] = append(n.adj[b.Device.ID], LinkPeer{l, a.Device})
	n.Layout.registerRun(l)
	return l
}

// ConnectAuto is Connect with the cable class chosen from the physical
// distance between the ports, the way deployments choose DAC for in-rack,
// AOC/AEC for short runs, and separate transceivers with trunk fiber for
// longer runs.
func (n *Network) ConnectAuto(a, b *Port, gbps float64) *Link {
	return n.Connect(a, b, ClassForLength(n.Layout.CableLength(a, b), gbps), gbps)
}

// Neighbors returns the adjacency list of d: each entry is a link and the
// device at its far end. The slice is the network's own adjacency storage —
// no allocation per call, so hot loops (ECMP enumeration, per-tick fabric
// sampling) can iterate it freely — and must not be modified.
func (n *Network) Neighbors(d DeviceID) []LinkPeer {
	return n.adj[d]
}

// LinkPeer pairs a link with the device at its far end, as seen from some
// starting device.
type LinkPeer struct {
	Link *Link
	Peer *Device
}

// DevicesOfKind returns all devices of the given kind, in ID order.
func (n *Network) DevicesOfKind(kind DeviceKind) []*Device {
	var out []*Device
	for _, d := range n.Devices {
		if d.Kind == kind {
			out = append(out, d)
		}
	}
	return out
}

// Hosts returns all end hosts (servers and GPU servers), in ID order.
func (n *Network) Hosts() []*Device {
	var out []*Device
	for _, d := range n.Devices {
		if !d.Kind.IsSwitch() {
			out = append(out, d)
		}
	}
	return out
}

// SwitchLinks returns all links whose both endpoints are switches (the
// fabric links, which are the subject of maintenance experiments), in ID
// order.
func (n *Network) SwitchLinks() []*Link {
	var out []*Link
	for _, l := range n.Links {
		if l.A.Device.Kind.IsSwitch() && l.B.Device.Kind.IsSwitch() {
			out = append(out, l)
		}
	}
	return out
}

// Stats summarizes a network for reports.
type Stats struct {
	Devices, Switches, Hosts int
	Links, FabricLinks       int
	TotalGbps                float64
	ByClass                  map[CableClass]int
}

// Stats computes summary counts.
func (n *Network) Stats() Stats {
	s := Stats{ByClass: make(map[CableClass]int)}
	for _, d := range n.Devices {
		s.Devices++
		if d.Kind.IsSwitch() {
			s.Switches++
		} else {
			s.Hosts++
		}
	}
	for _, l := range n.Links {
		s.Links++
		s.TotalGbps += l.GbpsCap
		s.ByClass[l.Cable.Class]++
		if l.A.Device.Kind.IsSwitch() && l.B.Device.Kind.IsSwitch() {
			s.FabricLinks++
		}
	}
	return s
}
