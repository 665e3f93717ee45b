package faults

import (
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Stats counts ground-truth events for experiment reporting.
type Stats struct {
	Onsets             map[Cause]int
	Flaps              int
	CascadeTransients  int
	CascadePermanents  int
	MaskedRecurrences  int
	PrecursorFlaps     int
	RepairsAttempted   int
	RepairsSucceeded   int
	ProactiveRefreshes int
}

// Injector owns link ground truth: it schedules fault onsets, drives flap
// episodes on gray links, applies the touch-cascade model, and adjudicates
// repair attempts. All methods must be called from inside the engine's
// event loop (the simulation is single-threaded).
type Injector struct {
	eng *sim.Engine
	net *topology.Network
	cfg Config

	states []LinkState
	info   []link

	onsetEvents []map[Cause]sim.Handle // pending onset per (link, cause)
	flapEvents  []sim.Handle           // pending flap episode per link
	recurEvents []sim.Handle           // pending masked recurrence per link

	listeners []Listener
	stats     Stats
}

// NewInjector creates the injector and schedules the initial fault onset
// for every applicable (link, cause) pair.
func NewInjector(eng *sim.Engine, net *topology.Network, cfg Config) *Injector {
	inj := &Injector{
		eng:         eng,
		net:         net,
		cfg:         cfg,
		states:      make([]LinkState, len(net.Links)),
		info:        make([]link, len(net.Links)),
		onsetEvents: make([]map[Cause]sim.Handle, len(net.Links)),
		flapEvents:  make([]sim.Handle, len(net.Links)),
		recurEvents: make([]sim.Handle, len(net.Links)),
	}
	inj.stats.Onsets = make(map[Cause]int)
	for i, l := range net.Links {
		inj.info[i] = link{
			needsXcvr: l.Cable.Class.NeedsTransceiver(),
			separable: l.Cable.Class.Separable(),
			switchEnd: l.A.Device.Kind.IsSwitch() || l.B.Device.Kind.IsSwitch(),
		}
		inj.onsetEvents[i] = make(map[Cause]sim.Handle)
		for _, c := range AllCauses {
			if c.applies(inj.info[i]) && cfg.AnnualRate[c] > 0 {
				inj.scheduleOnset(l, c)
			}
		}
	}
	return inj
}

// Subscribe adds a ground-truth listener.
func (inj *Injector) Subscribe(ls Listener) { inj.listeners = append(inj.listeners, ls) }

// State returns a copy of the link's full state. Ground truth fields
// (Cause, Masked, Ends) are for the repair model and experiment scoring
// only; production-side code must restrict itself to Observable().
func (inj *Injector) State(id topology.LinkID) LinkState { return inj.states[id] }

// Observable returns the health monitoring can see for the link.
func (inj *Injector) Observable(id topology.LinkID) Health {
	return inj.states[id].Observable()
}

// Stats returns a copy of the event counters.
func (inj *Injector) Stats() Stats {
	s := inj.stats
	s.Onsets = make(map[Cause]int, len(inj.stats.Onsets))
	for k, v := range inj.stats.Onsets {
		s.Onsets[k] = v
	}
	return s
}

// --- onset machinery -----------------------------------------------------

// scheduleOnset samples a fresh lifetime for (l, c) and queues the onset.
func (inj *Injector) scheduleOnset(l *topology.Link, c Cause) {
	rate := inj.cfg.AnnualRate[c]
	shape := inj.cfg.Shape[c]
	if shape <= 0 {
		shape = 1
	}
	meanYears := 1 / rate
	scale := meanYears / math.Gamma(1+1/shape)
	years := inj.rng("onset").Weibull(shape, scale)
	// Cap lifetimes far beyond any experiment horizon; uncapped draws from
	// heavy-tailed lifetime distributions can overflow virtual time.
	const maxYears = 200
	if years > maxYears {
		years = maxYears
	}
	at := inj.eng.Now() + sim.Time(years*float64(sim.Year))
	ev := inj.eng.Schedule(at, "fault-onset", func() {
		inj.onset(l, c)
	})
	inj.onsetEvents[l.ID][c] = ev
	inj.schedulePrecursor(l, c, ev, at)
}

// schedulePrecursor queues the incubation phase of a gradual fault: sparse
// sub-clinical flap episodes in the days before the onset manifests. The
// chain validates that the onset it belongs to is still pending, so repairs
// that renew the wear clock silence the precursors too.
func (inj *Injector) schedulePrecursor(l *topology.Link, c Cause, onsetEv sim.Handle, onsetAt sim.Time) {
	if c != Contamination && c != Oxidation {
		return
	}
	if inj.cfg.PrecursorIncubation == nil || inj.cfg.PrecursorGapH <= 0 {
		return
	}
	days := inj.cfg.PrecursorIncubation.Sample(inj.rng("precursor"))
	incub := sim.Time(days * float64(sim.Day))
	if max := onsetAt - inj.eng.Now(); incub > max/2 {
		incub = max / 2
	}
	if incub < sim.Hour {
		return
	}
	start := onsetAt - incub
	var tick func()
	tick = func() {
		// The onset was cancelled or already fired: stop.
		if inj.onsetEvents[l.ID][c] != onsetEv || !onsetEv.Pending() {
			return
		}
		st := &inj.states[l.ID]
		if st.Cause == None && !st.InRepair {
			st.FlapCount++
			inj.stats.PrecursorFlaps++
			for _, ls := range inj.listeners {
				ls.LinkFlapped(l, sim.Second, inj.cfg.PrecursorLoss, inj.eng.Now())
			}
		}
		gap := sim.Time(inj.rng("precursor").Exponential(inj.cfg.PrecursorGapH) * float64(sim.Hour))
		if gap < 10*sim.Minute {
			gap = 10 * sim.Minute
		}
		next := inj.eng.Now() + gap
		if next < onsetAt {
			inj.eng.Schedule(next, "precursor-flap", tick)
		}
	}
	inj.eng.Schedule(start, "precursor-start", tick)
}

func (inj *Injector) onset(l *topology.Link, c Cause) {
	st := &inj.states[l.ID]
	delete(inj.onsetEvents[l.ID], c)
	if st.Cause != None || st.InRepair {
		// Hardware already misbehaving or on the bench: this onset is
		// pre-empted; redraw its clock.
		inj.scheduleOnset(l, c)
		return
	}
	inj.beginFault(l, c)
}

// beginFault makes cause c manifest on l now.
func (inj *Injector) beginFault(l *topology.Link, c Cause) {
	st := &inj.states[l.ID]
	rng := inj.rng("manifest")
	st.Cause = c
	st.Masked = false
	if rng.Bernoulli(0.5) {
		st.CauseEnd = EndB
	} else {
		st.CauseEnd = EndA
	}
	// A switch-port fault lives in switch silicon: constrain the end to a
	// switch-side port.
	if c == SwitchPort && !st.CauseEnd.Port(l).Device.Kind.IsSwitch() {
		st.CauseEnd = st.CauseEnd.Opposite()
	}
	if c == Contamination {
		st.Ends[st.CauseEnd].Dirt = 0.4 + 0.6*rng.Float64()
	}
	inj.stats.Onsets[c]++
	if rng.Bernoulli(inj.cfg.DownManifest[c]) {
		inj.setHealth(l, Down)
	} else {
		inj.setHealth(l, Flapping)
		inj.scheduleFlap(l)
	}
}

// --- flapping ------------------------------------------------------------

// envFactor models the daily environmental cycle (temperature, vibration)
// that modulates gray-failure activity (§1).
func (inj *Injector) envFactor(at sim.Time) float64 {
	frac := math.Mod(at.Days(), 1)
	return 1 + inj.cfg.EnvAmplitude*math.Sin(2*math.Pi*frac)
}

func (inj *Injector) scheduleFlap(l *topology.Link) {
	st := &inj.states[l.ID]
	rng := inj.rng("flap")
	interval := inj.cfg.FlapInterval.Sample(rng)
	// Dirtier end-faces flap more often.
	severity := 0.5
	if st.Cause == Contamination {
		severity = st.Ends[st.CauseEnd].Dirt
	}
	interval /= (0.5 + severity) * inj.envFactor(inj.eng.Now())
	if interval < 1 {
		interval = 1
	}
	at := inj.eng.Now() + sim.Time(interval*float64(sim.Second))
	inj.flapEvents[l.ID] = inj.eng.Schedule(at, "flap", func() {
		inj.flapEvents[l.ID] = sim.Handle{}
		st := &inj.states[l.ID]
		if st.Health != Flapping || st.InRepair {
			return
		}
		dur := sim.SampleDuration(inj.cfg.FlapDuration, rng)
		loss := inj.cfg.FlapLoss.Sample(rng)
		st.FlapCount++
		inj.stats.Flaps++
		for _, ls := range inj.listeners {
			ls.LinkFlapped(l, dur, loss, inj.eng.Now())
		}
		inj.scheduleFlap(l)
	})
}

func (inj *Injector) cancelFlap(id topology.LinkID) {
	inj.flapEvents[id].Cancel()
	inj.flapEvents[id] = sim.Handle{}
}

// --- health transitions ----------------------------------------------------

// setHealth updates underlying health and notifies listeners of observable
// transitions.
func (inj *Injector) setHealth(l *topology.Link, to Health) {
	st := &inj.states[l.ID]
	before := st.Observable()
	st.Health = to
	if to != Flapping {
		inj.cancelFlap(l.ID)
	}
	if to == Healthy {
		st.FlapCount = 0
	}
	after := st.Observable()
	if before != after {
		st.Since = inj.eng.Now()
		for _, ls := range inj.listeners {
			ls.LinkStateChanged(l, before, after, inj.eng.Now())
		}
	}
}

// setInRepair toggles the physically-being-worked-on flag, emitting the
// observable transition it implies.
func (inj *Injector) setInRepair(l *topology.Link, v bool) {
	st := &inj.states[l.ID]
	before := st.Observable()
	st.InRepair = v
	after := st.Observable()
	if before != after {
		st.Since = inj.eng.Now()
		for _, ls := range inj.listeners {
			ls.LinkStateChanged(l, before, after, inj.eng.Now())
		}
	}
	if v {
		inj.cancelFlap(l.ID)
	} else if st.Health == Flapping && !inj.flapEvents[l.ID].Pending() {
		inj.scheduleFlap(l)
	}
}

// rng returns a named injector stream.
func (inj *Injector) rng(name string) *sim.Stream { return inj.eng.RNG("faults/" + name) }
