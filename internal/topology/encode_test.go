package topology

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNetworkJSONRoundTrip(t *testing.T) {
	builders := map[string]func() (*Network, error){
		"fattree": func() (*Network, error) { return NewFatTree(DefaultFatTree(4)) },
		"leafspine": func() (*Network, error) {
			return NewLeafSpine(LeafSpineConfig{
				Leaves: 4, Spines: 2, HostsPerLeaf: 2, Uplinks: 2,
				FabricGbps: 400, HostGbps: 100,
			})
		},
		"jellyfish": func() (*Network, error) {
			cfg := jellyfishConfig()
			cfg.Switches = 12
			cfg.FabricDegree = 4
			cfg.HostsPerSwitch = 2
			return NewJellyfish(cfg)
		},
	}
	for name, build := range builders {
		orig, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(orig); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeNetwork(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// Structural equality.
		if got.Name != orig.Name {
			t.Errorf("%s: name %q != %q", name, got.Name, orig.Name)
		}
		if len(got.Devices) != len(orig.Devices) || len(got.Links) != len(orig.Links) {
			t.Fatalf("%s: size mismatch", name)
		}
		for i, d := range orig.Devices {
			g := got.Devices[i]
			if g.Name != d.Name || g.Kind != d.Kind || g.Loc != d.Loc || len(g.Ports) != len(d.Ports) {
				t.Fatalf("%s: device %d mismatch: %+v vs %+v", name, i, g, d)
			}
		}
		for i, l := range orig.Links {
			g := got.Links[i]
			if g.A.Device.ID != l.A.Device.ID || g.B.Device.ID != l.B.Device.ID ||
				g.A.Index != l.A.Index || g.B.Index != l.B.Index {
				t.Fatalf("%s: link %d endpoints mismatch", name, i)
			}
			if g.Cable.Class != l.Cable.Class || g.GbpsCap != l.GbpsCap || g.Redundant != l.Redundant {
				t.Fatalf("%s: link %d attributes mismatch", name, i)
			}
		}
		// Derived layout state is recomputed, not copied: tray runs match.
		for i, l := range orig.Links {
			if got.Layout.TrayOccupancy(got.Links[i]) != orig.Layout.TrayOccupancy(l) {
				t.Fatalf("%s: link %d tray occupancy not rederived", name, i)
			}
		}
		// Graph invariants survive.
		if connected(got) != connected(orig) {
			t.Fatalf("%s: connectivity changed", name)
		}
	}
}

func TestDecodeNetworkRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"not json":       `{nope`,
		"bad device ref": `{"name":"x","devices":[{"name":"a","kind":2,"ports":2}],"links":[{"a_dev":5,"a_port":0,"b_dev":0,"b_port":1,"class":0,"gbps":10}]}`,
		"bad port ref":   `{"name":"x","devices":[{"name":"a","kind":2,"ports":1},{"name":"b","kind":2,"ports":1}],"links":[{"a_dev":0,"a_port":7,"b_dev":1,"b_port":0,"class":0,"gbps":10}]}`,
		"negative ports": `{"name":"x","devices":[{"name":"a","kind":2,"ports":-1}]}`,
		"port reuse": `{"name":"x","devices":[{"name":"a","kind":2,"ports":1},{"name":"b","kind":2,"ports":2}],` +
			`"links":[{"a_dev":0,"a_port":0,"b_dev":1,"b_port":0,"class":0,"gbps":10},` +
			`{"a_dev":0,"a_port":0,"b_dev":1,"b_port":1,"class":0,"gbps":10}]}`,
	}
	for name, in := range cases {
		if _, err := DecodeNetwork(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMarshalIsValidJSON(t *testing.T) {
	n, err := NewLeafSpine(LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1, Uplinks: 1, FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v["name"] != n.Name {
		t.Fatal("name field")
	}
}
