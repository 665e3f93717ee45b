package maintindex

import (
	"testing"

	"repro/internal/topology"
)

func build(t *testing.T, kind string) *topology.Network {
	t.Helper()
	var n *topology.Network
	var err error
	switch kind {
	case "fattree":
		n, err = topology.NewFatTree(topology.DefaultFatTree(4))
	case "leafspine":
		n, err = topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: 8, Spines: 4, HostsPerLeaf: 8, Uplinks: 1,
			FabricGbps: 400, HostGbps: 100,
		})
	case "jellyfish":
		n, err = topology.NewJellyfish(topology.JellyfishConfig{
			Switches: 24, FabricDegree: 6, HostsPerSwitch: 3,
			FabricGbps: 400, HostGbps: 100, Seed: 1,
		})
	case "xpander":
		n, err = topology.NewXpander(topology.XpanderConfig{
			Degree: 6, Lift: 4, HostsPerSwitch: 3,
			FabricGbps: 400, HostGbps: 100, Seed: 1,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestComponentsInRange(t *testing.T) {
	for _, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander"} {
		rep := Evaluate(build(t, kind), DefaultConfig())
		c := rep.Components
		for name, v := range map[string]float64{
			"locality": c.Locality, "clarity": c.PortClarity, "tray": c.TrayHeadroom,
			"runs": c.ShortRuns, "drain": c.DrainTolerance, "par": c.Parallelism,
			"media": c.MediaSimplicity,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: component %s = %v out of [0,1]", kind, name, v)
			}
		}
		if rep.Index < 0 || rep.Index > 100 {
			t.Errorf("%s: index = %v", kind, rep.Index)
		}
		if rep.ThroughputNorm <= 0 || rep.ThroughputNorm > 1.0001 {
			t.Errorf("%s: throughput = %v", kind, rep.ThroughputNorm)
		}
		if rep.OfferedGbps <= 0 || rep.SatisfiedGbps <= 0 {
			t.Errorf("%s: absolute probe rates not populated: offered %v satisfied %v", kind, rep.OfferedGbps, rep.SatisfiedGbps)
		}
		if rep.FabricLinks == 0 {
			t.Errorf("%s: no fabric links", kind)
		}
		if rep.String() == "" {
			t.Error("empty report string")
		}
	}
}

func TestRandomTopologiesLessLocalThanClos(t *testing.T) {
	// Fat-tree pods keep edge-agg links within a pod row; jellyfish wires
	// ToRs at random across the hall.
	ft := Evaluate(build(t, "fattree"), DefaultConfig())
	jf := Evaluate(build(t, "jellyfish"), DefaultConfig())
	if jf.Components.Locality >= ft.Components.Locality {
		t.Fatalf("jellyfish locality %v >= fat-tree %v", jf.Components.Locality, ft.Components.Locality)
	}
	if jf.Index > ft.Index+15 {
		t.Fatalf("jellyfish (%v) wildly out-scores fat-tree (%v)", jf.Index, ft.Index)
	}
}

func TestDrainToleranceReflectsRedundancy(t *testing.T) {
	// A 1-spine fabric loses real capacity per drain; a 4-spine one barely
	// notices.
	thin, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 1, HostsPerLeaf: 8, Uplinks: 1, FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8, Uplinks: 1, FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rThin := Evaluate(thin, DefaultConfig())
	rFat := Evaluate(fat, DefaultConfig())
	if rFat.Components.DrainTolerance <= rThin.Components.DrainTolerance {
		t.Fatalf("drain tolerance: 4-spine %v <= 1-spine %v",
			rFat.Components.DrainTolerance, rThin.Components.DrainTolerance)
	}
}

func TestEmptyNetwork(t *testing.T) {
	n := topology.New("empty")
	rep := Evaluate(n, DefaultConfig())
	if rep.Index != 0 || rep.FabricLinks != 0 {
		t.Fatalf("empty network report: %+v", rep)
	}
}

func TestDeterministic(t *testing.T) {
	a := Evaluate(build(t, "jellyfish"), DefaultConfig())
	b := Evaluate(build(t, "jellyfish"), DefaultConfig())
	if a.Index != b.Index || a.ThroughputNorm != b.ThroughputNorm {
		t.Fatal("evaluation not deterministic")
	}
}
