// Package diagnosis infers what is wrong with a misbehaving link from
// observable telemetry and per-end DDM sensor readings: which end to
// service and a ranked distribution over suspected causes. It never reads
// fault-injector ground truth directly; its accuracy is therefore a model
// property that experiments can score (§4 "Fault detection and isolation").
package diagnosis

import (
	"fmt"
	"sort"

	"repro/internal/detsort"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Sensors is the read-only sensor interface diagnosis needs. The fault
// injector satisfies it; tests may substitute fakes.
type Sensors interface {
	ReadDDM(l *topology.Link, e faults.End) faults.DDM
}

// Suspect is one hypothesis with its weight.
type Suspect struct {
	Cause  faults.Cause
	Weight float64
}

// Diagnosis is the output of one diagnostic pass over a link.
type Diagnosis struct {
	Link     *topology.Link
	At       sim.Time
	Symptom  faults.Health // down or (detected) flapping
	End      faults.End    // which end to service first
	Suspects []Suspect     // ranked, weights sum to 1
}

// Top returns the leading suspect cause.
func (d Diagnosis) Top() faults.Cause {
	if len(d.Suspects) == 0 {
		return faults.None
	}
	return d.Suspects[0].Cause
}

// String renders the diagnosis for logs.
func (d Diagnosis) String() string {
	return fmt.Sprintf("%s: %v at end %v, top suspect %v",
		d.Link.Name(), d.Symptom, d.End, d.Top())
}

// Engine performs diagnosis using telemetry counters and DDM readings.
type Engine struct {
	clock   *sim.Engine
	mon     *telemetry.Monitor
	sensors Sensors
	// Readings averages several DDM samples to reduce noise; more samples
	// model a longer diagnostic soak.
	Readings int
}

// New creates a diagnosis engine.
func New(clock *sim.Engine, mon *telemetry.Monitor, sensors Sensors) *Engine {
	return &Engine{clock: clock, mon: mon, sensors: sensors, Readings: 3}
}

// Diagnose produces a diagnosis for a link whose observed symptom is given
// (down or flapping, from the alert that triggered the pass).
func (e *Engine) Diagnose(l *topology.Link, symptom faults.Health) Diagnosis {
	d := Diagnosis{Link: l, At: e.clock.Now(), Symptom: symptom}

	var a, b faults.DDM
	n := e.Readings
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		ra := e.sensors.ReadDDM(l, faults.EndA)
		rb := e.sensors.ReadDDM(l, faults.EndB)
		a.RxDbm += ra.RxDbm / float64(n)
		a.Errors += ra.Errors / float64(n)
		b.RxDbm += rb.RxDbm / float64(n)
		b.Errors += rb.Errors / float64(n)
	}

	// End choice: prefer the end whose local evidence is worse. Low rx
	// power implicates the reading end's connector; high error rate
	// implicates the reading end's electronics.
	scoreA := (faults.NominalRxDbm-a.RxDbm)/8 + a.Errors
	scoreB := (faults.NominalRxDbm-b.RxDbm)/8 + b.Errors
	d.End = faults.EndA
	if scoreB > scoreA {
		d.End = faults.EndB
	}

	d.Suspects = e.rankCauses(l, symptom, a, b)
	return d
}

// rankCauses builds the suspect distribution from symptom shape, media
// type, history and sensor evidence.
func (e *Engine) rankCauses(l *topology.Link, symptom faults.Health, a, b faults.DDM) []Suspect {
	w := map[faults.Cause]float64{}
	c := e.mon.Counters(l.ID)
	separable := l.HasSeparableFiber()
	pluggable := l.Cable.Class.NeedsTransceiver()

	worstRx := a.RxDbm
	if b.RxDbm < worstRx {
		worstRx = b.RxDbm
	}
	worstErr := a.Errors
	if b.Errors > worstErr {
		worstErr = b.Errors
	}
	attenuated := faults.NominalRxDbm-worstRx > 2.5
	noisy := worstErr > 0.25

	if separable && attenuated {
		w[faults.Contamination] += 2.0
	}
	if separable && symptom == faults.Flapping {
		w[faults.Contamination] += 1.2
	}
	if pluggable && noisy {
		w[faults.Oxidation] += 1.0
		w[faults.FirmwareHang] += 0.8
	}
	if pluggable && symptom == faults.Down {
		w[faults.XcvrDead] += 0.9
		w[faults.FirmwareHang] += 0.5
	}
	if attenuated && faults.NominalRxDbm-worstRx > 5 {
		w[faults.CableDamaged] += 0.8
	}
	if symptom == faults.Down && !noisy && !attenuated {
		// Dark with clean analog readings: suspect the switch side.
		w[faults.SwitchPort] += 0.7
		w[faults.CableDamaged] += 0.4
	}
	// Heavy flap history on separable media keeps pointing at dirt.
	if separable && c.FlapEpisodes > 5 {
		w[faults.Contamination] += 0.6
	}
	if len(w) == 0 {
		// No evidence at all: fall back to base-rate ordering.
		w[faults.Oxidation] = 1
		w[faults.FirmwareHang] = 0.8
		if separable {
			w[faults.Contamination] = 1.2
		}
		w[faults.XcvrDead] = 0.5
		w[faults.CableDamaged] = 0.3
		w[faults.SwitchPort] = 0.2
	}

	// Sum and emit in sorted-cause order: float addition does not
	// associate, so summing in map order would make the normalized weights
	// (and everything downstream of them) vary from run to run at the last
	// bit.
	causes := detsort.Keys(w)
	var total float64
	for _, cause := range causes {
		total += w[cause]
	}
	out := make([]Suspect, 0, len(w))
	for _, cause := range causes {
		out = append(out, Suspect{Cause: cause, Weight: w[cause] / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}
