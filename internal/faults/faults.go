// Package faults owns the ground truth of hardware failure in a simulated
// datacenter network: which links are broken, why, how the failure
// manifests (fail-stop vs gray/flapping), how physical touch near hardware
// cascades into co-located failures, and what each repair action actually
// fixes.
//
// The package deliberately separates three things the paper argues are
// conflated in today's operations:
//
//   - Cause: the hidden root cause (oxidized contacts, end-face dirt, dead
//     module, damaged cable, bad switch port). Only the fault injector and
//     the repair-outcome model see it; diagnosis has to infer it.
//   - Health: the externally observable state (healthy, flapping, down).
//   - Repair: actions from the paper's escalation ladder (§3.2) whose
//     success probability depends on the hidden cause.
package faults

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Cause is a hidden root cause of link misbehaviour.
type Cause uint8

// Root causes, in escalation-ladder order of what fixes them.
const (
	None          Cause = iota
	Oxidation           // degraded electrical contact; reseat fixes
	FirmwareHang        // wedged transceiver firmware; reseat (power cycle) fixes
	Contamination       // dirt on a fiber end-face; cleaning fixes
	XcvrDead            // failed module; replacement fixes
	CableDamaged        // damaged fiber/copper; cable replacement fixes
	SwitchPort          // bad switch port / line card; switch-side replacement fixes
)

var causeNames = [...]string{
	None:          "none",
	Oxidation:     "oxidation",
	FirmwareHang:  "firmware-hang",
	Contamination: "contamination",
	XcvrDead:      "xcvr-dead",
	CableDamaged:  "cable-damaged",
	SwitchPort:    "switch-port",
}

// String returns the cause name.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// AllCauses lists every non-None cause, in order.
var AllCauses = []Cause{Oxidation, FirmwareHang, Contamination, XcvrDead, CableDamaged, SwitchPort}

// Health is the externally observable state of a link.
type Health uint8

// Health states.
const (
	Healthy Health = iota
	Flapping
	Down
)

var healthNames = [...]string{Healthy: "healthy", Flapping: "flapping", Down: "down"}

// String returns the health name.
func (h Health) String() string {
	if int(h) < len(healthNames) {
		return healthNames[h]
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// End selects one end of a link.
type End uint8

// Link ends.
const (
	EndA End = iota
	EndB
)

// String returns "A" or "B".
func (e End) String() string {
	if e == EndA {
		return "A"
	}
	return "B"
}

// Port returns the port at end e of l.
func (e End) Port(l *topology.Link) *topology.Port {
	if e == EndA {
		return l.A
	}
	return l.B
}

// Opposite returns the other end.
func (e End) Opposite() End { return 1 - e }

// Action is a physical repair action from the paper's escalation ladder.
type Action uint8

// Repair actions, in escalation order (§3.2).
const (
	Reseat Action = iota
	Clean
	ReplaceXcvr
	ReplaceCable
	ReplaceSwitchPort
)

var actionNames = [...]string{
	Reseat:            "reseat",
	Clean:             "clean",
	ReplaceXcvr:       "replace-xcvr",
	ReplaceCable:      "replace-cable",
	ReplaceSwitchPort: "replace-switch-port",
}

// String returns the action name.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// AllActions lists the escalation ladder in order.
var AllActions = []Action{Reseat, Clean, ReplaceXcvr, ReplaceCable, ReplaceSwitchPort}

// EndState is per-end physical state: how dirty the fiber end-face and
// transceiver optics are. 0 is pristine; 1 is grossly contaminated.
type EndState struct {
	Dirt float64
}

// LinkState is the full runtime state of one link.
type LinkState struct {
	Health    Health
	Cause     Cause
	CauseEnd  End  // which end carries the cause (for end-local causes)
	Masked    bool // a reseat temporarily masked a cause that will recur
	InRepair  bool // physically being worked on (forced down)
	Ends      [2]EndState
	Since     sim.Time // instant of the last health transition
	FlapCount int      // flap episodes since last healthy transition
}

// Observable reduces the state to what monitoring can legitimately see.
func (st *LinkState) Observable() Health {
	if st.InRepair {
		return Down
	}
	return st.Health
}

// Listener observes ground-truth transitions. The telemetry layer adapts
// these into the counters and alerts that the rest of the stack consumes;
// nothing above telemetry may see Cause.
type Listener interface {
	// LinkStateChanged fires on every health transition, including those
	// caused by starting and finishing physical repairs.
	LinkStateChanged(l *topology.Link, from, to Health, at sim.Time)
	// LinkFlapped fires for each flap episode on a flapping link: the link
	// dropped for dur and lost roughly lossFrac of packets in the episode.
	LinkFlapped(l *topology.Link, dur sim.Time, lossFrac float64, at sim.Time)
}

// RepairResult reports what a repair action physically accomplished.
type RepairResult struct {
	Action  Action
	End     End
	Fixed   bool  // link restored to healthy
	Masked  bool  // symptom suppressed but cause will recur
	Cleared Cause // cause removed, if any
	Note    string
}

// String summarizes the result for logs.
func (r RepairResult) String() string {
	switch {
	case r.Fixed && r.Masked:
		return fmt.Sprintf("%s@%s masked %s (will recur)", r.Action, r.End, r.Cleared)
	case r.Fixed:
		return fmt.Sprintf("%s@%s fixed %s", r.Action, r.End, r.Cleared)
	default:
		return fmt.Sprintf("%s@%s did not fix (%s)", r.Action, r.End, r.Note)
	}
}
