package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// buildRandomFabric constructs a jellyfish of parameterized size for
// property tests.
func buildRandomFabric(t *testing.T, switches, degree, hosts int, seed uint64) *topology.Network {
	t.Helper()
	if switches*degree%2 != 0 {
		switches++
	}
	n, err := topology.NewJellyfish(topology.JellyfishConfig{
		Switches: switches, FabricDegree: degree, HostsPerSwitch: hosts,
		FabricGbps: 400, HostGbps: 100, Seed: seed,
	})
	if err != nil {
		t.Skip("construction failed for these parameters:", err)
	}
	return n
}

// Property: every ECMP path the spec enumerates is loop-free, has minimal
// hop count, and actually connects src to dst.
func TestPathsAreShortestAndLoopFreeProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw, pairRaw uint8) bool {
		switches := 8 + int(sizeRaw%12)
		net := buildRandomFabric(t, switches, 4, 2, seed)
		r := NewRouter(net, nil)
		hosts := net.Hosts()
		if len(hosts) < 2 {
			return true
		}
		src := hosts[int(pairRaw)%len(hosts)].ID
		dst := hosts[(int(pairRaw)+7)%len(hosts)].ID
		if src == dst {
			return true
		}
		want := net.HopDistances(dst, nil)[src]
		paths := specPaths(r, specField(r, dst), src, dst)
		if want < 0 {
			return len(paths) == 0
		}
		if len(paths) == 0 {
			return false
		}
		for _, p := range paths {
			if len(p) != want {
				return false // non-minimal
			}
			// Walk the path and confirm it connects src to dst without
			// revisiting a device.
			cur := src
			seen := map[topology.DeviceID]bool{src: true}
			for _, l := range p {
				var next *topology.Device
				switch cur {
				case l.A.Device.ID:
					next = l.B.Device
				case l.B.Device.ID:
					next = l.A.Device
				default:
					return false // link not incident to current device
				}
				if seen[next.ID] {
					return false // loop
				}
				seen[next.ID] = true
				cur = next.ID
			}
			if cur != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: satisfied traffic never exceeds offered traffic, per demand and
// in aggregate, and unreachable demands contribute zero.
func TestEvaluateConservationProperty(t *testing.T) {
	f := func(seed uint64, loadRaw uint16, cut uint8) bool {
		net := buildRandomFabric(t, 10, 4, 2, seed)
		down := map[topology.LinkID]bool{}
		// Cut a pseudo-random subset of fabric links.
		for i, l := range net.SwitchLinks() {
			if (int(cut)+i)%5 == 0 {
				down[l.ID] = true
			}
		}
		r := NewRouter(net, func(id topology.LinkID) bool { return !down[id] })
		tm := UniformMatrix(net, 1+float64(loadRaw))
		a := evaluate(r, tm)
		if a.SatisfiedGbps > a.OfferedGbps+1e-6 {
			return false
		}
		for i, s := range a.PerDemand {
			if s < -1e-9 || s > 1+1e-9 {
				return false
			}
			_ = i
		}
		// Load never appears on unusable links.
		for id, load := range a.LinkLoad {
			if down[topology.LinkID(id)] && load != 0 {
				return false
			}
		}
		return a.Availability() >= 0 && a.Availability() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: draining and undraining a link restores the exact previous
// assessment (cache correctness under invalidation).
func TestDrainUndrainIdempotentProperty(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		net := buildRandomFabric(t, 10, 4, 2, seed)
		r := NewRouter(net, nil)
		tm := UniformMatrix(net, 500)
		before := evaluate(r, tm)
		fabric := net.SwitchLinks()
		l := fabric[int(pick)%len(fabric)]
		r.Drain(l.ID)
		_ = evaluate(r, tm)
		r.Undrain(l.ID)
		after := evaluate(r, tm)
		if before.SatisfiedGbps != after.SatisfiedGbps ||
			before.Unreachable != after.Unreachable ||
			before.MaxUtil != after.MaxUtil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
