package topology

import (
	"fmt"
	"sync/atomic"
)

// CableClass classifies the physical medium of a link, following §3.1 of
// the paper: DAC for short copper, AEC/AOC for integrated active cables,
// and separate transceivers with LC or MPO trunk fiber for longer runs.
type CableClass uint8

// Cable classes.
const (
	DAC      CableClass = iota // direct-attach copper, no transceiver
	AEC                        // active electrical cable, integrated ends
	AOC                        // active optical cable, integrated ends
	FiberLC                    // single-channel fiber, separable from transceiver
	FiberMPO                   // multi-channel trunk fiber, separable
)

var cableClassNames = [...]string{
	DAC:      "DAC",
	AEC:      "AEC",
	AOC:      "AOC",
	FiberLC:  "LC",
	FiberMPO: "MPO",
}

// String returns the conventional short name.
func (c CableClass) String() string {
	if int(c) < len(cableClassNames) {
		return cableClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// NeedsTransceiver reports whether links of this class have field-pluggable
// transceivers at the ends (and can therefore be reseated independently of
// the cable).
func (c CableClass) NeedsTransceiver() bool { return c == FiberLC || c == FiberMPO }

// Separable reports whether the cable detaches from the transceiver in the
// field, making end-face inspection and cleaning a meaningful repair.
func (c CableClass) Separable() bool { return c == FiberLC || c == FiberMPO }

// DefaultCores returns the number of fiber cores (channels) in a cable of
// this class at the given link speed: one core carries 100 Gbps, so an
// 800 Gbps MPO trunk has 8 cores (§3.2).
func (c CableClass) DefaultCores(gbps float64) int {
	switch c {
	case FiberMPO, AOC:
		cores := int(gbps / 100)
		if cores < 2 {
			cores = 2
		}
		return cores
	case FiberLC:
		return 1
	default:
		return 0
	}
}

// ClassForLength chooses the deployment-typical cable class for a run of
// the given length: DAC within ~3 m, AOC for adjacent-rack runs, and
// separate transceivers with structured trunk fiber beyond that (runs that
// leave the rack neighbourhood go through patch panels and trays, which is
// what makes them separable). High-speed (>=400 Gbps) links use MPO trunks;
// slower separable links use LC.
func ClassForLength(lengthM, gbps float64) CableClass {
	switch {
	case lengthM <= 3:
		return DAC
	case lengthM <= 6:
		return AOC
	case gbps >= 400:
		return FiberMPO
	default:
		return FiberLC
	}
}

// Cable is the physical cable of one link. Replacing a cable during repair
// swaps the whole value.
type Cable struct {
	Class   CableClass
	Cores   int  // fiber channels; 0 for copper
	APC     bool // 8-degree angled end-face polish (MPO trunks)
	LengthM float64
	// TraySegments is filled in by the layout when the link is registered:
	// the overhead tray segments this cable's run occupies.
	TraySegments []SegmentID
}

// TransceiverModel describes one model in the (very diverse, §4) fleet of
// pluggable transceivers. The fields that matter to robotics are the
// mechanical ones: the backend grip geometry and pull-tab style vary by
// model even though the electrical front end is standardized.
type TransceiverModel struct {
	Name      string
	Form      string // QSFP28, QSFP56, QSFP-DD, OSFP
	Gbps      float64
	GripStyle int // mechanical backend variant; drives recognition difficulty
	TabStyle  int // pull-tab variant
}

// ModelCatalog is the fleet's transceiver diversity: the paper reports
// "literally tens of different designs" in production (§4). Experiments vary
// the effective diversity by truncating this list.
var ModelCatalog = buildCatalog()

func buildCatalog() []TransceiverModel {
	forms := []struct {
		form string
		gbps float64
	}{
		{"QSFP28", 100},
		{"QSFP56", 200},
		{"QSFP-DD", 400},
		{"OSFP", 800},
	}
	var out []TransceiverModel
	vendor := 0
	for _, f := range forms {
		for v := 0; v < 8; v++ { // 8 vendor variants per form factor: 32 models
			out = append(out, TransceiverModel{
				Name:      fmt.Sprintf("%s-v%02d", f.form, vendor),
				Form:      f.form,
				Gbps:      f.gbps,
				GripStyle: vendor % 5,
				TabStyle:  vendor % 3,
			})
			vendor++
		}
	}
	return out
}

// PickModel deterministically assigns a catalog model compatible with the
// class and speed, using salt to spread models across a build the way mixed
// procurement does.
func PickModel(class CableClass, gbps float64, salt int) *TransceiverModel {
	var compatible []int
	for i := range ModelCatalog {
		if ModelCatalog[i].Gbps >= gbps {
			compatible = append(compatible, i)
		}
	}
	if len(compatible) == 0 {
		// faster than anything in the catalog: take the fastest models
		for i := range ModelCatalog {
			if ModelCatalog[i].Gbps == 800 {
				compatible = append(compatible, i)
			}
		}
	}
	return &ModelCatalog[compatible[salt%len(compatible)]]
}

// Transceiver is one physical pluggable module occupying a port. Repairs
// may replace it, so it carries its own serial identity.
type Transceiver struct {
	Model  *TransceiverModel
	Serial int
}

var xcvrSerial atomic.Int64

// NewTransceiver mints a transceiver of the given model with a fresh
// serial number. Serial numbers are process-global (atomic: worlds build
// and run concurrently under the experiment runner); they exist only to
// distinguish "same module reseated" from "new module installed" and
// never appear in deterministic output.
func NewTransceiver(m *TransceiverModel) *Transceiver {
	return &Transceiver{Model: m, Serial: int(xcvrSerial.Add(1))}
}

// String returns "model#serial".
func (t *Transceiver) String() string {
	if t == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s#%d", t.Model.Name, t.Serial)
}
