package faults

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Touch applies the cascading-failure model for physical work at a port
// (§1: "physical motion near or with hardware creates vibrations and other
// physical effects on the co-located hardware"). Every connected cable
// within the touch radius on the same panel is disturbed; each disturbance
// causes a transient flap episode with probability proportional to
// proximity, and more rarely a new permanent fault. gentle selects the
// purpose-built-gripper factor (§3.3.1): robots part cables deliberately
// and press only on the transceiver body.
//
// It returns the number of collateral effects (flaps plus new faults),
// which the controller can correlate with the action (§4: "low-level
// repair actions can be correlated with any resulting failures").
func (inj *Injector) Touch(p *topology.Port, gentle bool) int {
	factor := 1.0
	if gentle {
		factor = inj.cfg.GentleFactor
	}
	effects := 0
	origin := inj.net.Layout.PortPoint(p)
	for _, q := range inj.net.PortsNear(p, inj.cfg.TouchRadiusM) {
		d := inj.net.Layout.PortPoint(q).Dist(origin)
		proximity := 1 - d/inj.cfg.TouchRadiusM
		if proximity < 0 {
			proximity = 0
		}
		effects += inj.disturb(q.Link,
			inj.cfg.TouchTransientProb*factor*proximity,
			inj.cfg.TouchPermanentProb*factor*proximity)
	}
	return effects
}

// TouchTray applies the cascade model for pulling a cable through its
// overhead tray run (cable replacement): every tray-mate is disturbed with
// a small per-cable probability, and a twentieth of those disturbances
// damage the neighbour outright. Only technicians pull cables, so the
// touch is always rough. It returns the number of effects, as Touch does.
func (inj *Injector) TouchTray(l *topology.Link) int {
	p := inj.cfg.TrayDisturbProb
	effects := 0
	for _, mate := range inj.net.LinksSharingTray(l) {
		effects += inj.disturb(mate, p, p/20)
	}
	return effects
}

// DisturbedBy returns the links that physical work at port p would put at
// risk: the cables within the touch radius. This is the pre-report the
// robot API exposes before any motion ("automation can report which network
// cables will be contacted before the maintenance occurs", §2).
func (inj *Injector) DisturbedBy(p *topology.Port) []*topology.Link {
	seen := map[topology.LinkID]bool{}
	var out []*topology.Link
	for _, q := range inj.net.PortsNear(p, inj.cfg.TouchRadiusM) {
		if q.Link != nil && !seen[q.Link.ID] {
			seen[q.Link.ID] = true
			out = append(out, q.Link)
		}
	}
	return out
}

// disturb applies one disturbance to a link: a transient flap with
// probability pTransient, and a new permanent fault with probability
// pPermanent (only if the link is currently fault-free). It returns how
// many of the two happened.
func (inj *Injector) disturb(l *topology.Link, pTransient, pPermanent float64) int {
	if l == nil {
		return 0
	}
	rng := inj.rng("touch")
	st := &inj.states[l.ID]
	effects := 0

	if rng.Bernoulli(pTransient) {
		// Transient flap: observable packet loss without a lasting health
		// change.
		dur := sim.SampleDuration(inj.cfg.FlapDuration, rng)
		loss := inj.cfg.FlapLoss.Sample(rng)
		inj.stats.CascadeTransients++
		st.FlapCount++
		for _, ls := range inj.listeners {
			ls.LinkFlapped(l, dur, loss, inj.eng.Now())
		}
		effects++
	}

	if st.Cause == None && !st.InRepair && rng.Bernoulli(pPermanent) {
		// Touch-induced permanent fault: pick an applicable mechanical cause.
		candidates := []Cause{CableDamaged, Contamination, Oxidation}
		weights := []float64{0.4, 0.4, 0.2}
		c := candidates[rng.PickWeighted(weights)]
		if !c.applies(inj.info[l.ID]) {
			c = CableDamaged // always applies
		}
		inj.stats.CascadePermanents++
		inj.beginFault(l, c)
		effects++
	}
	return effects
}
