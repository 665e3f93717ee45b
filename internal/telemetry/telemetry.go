// Package telemetry is the monitoring plane: it observes link state
// transitions and flap episodes (as a faults.Listener), maintains per-link
// counters and windowed histories, detects flapping with a thresholded
// window, and emits alerts. Everything above this layer — diagnosis,
// ticketing, the controller — sees only what telemetry exposes, never the
// fault injector's hidden ground truth.
package telemetry

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config tunes detection.
type Config struct {
	// FlapWindow and FlapThreshold define flap detection: a link is
	// declared flapping when it logs FlapThreshold or more episodes within
	// FlapWindow.
	FlapWindow    sim.Time
	FlapThreshold int
	// LossAlpha is the EWMA smoothing factor for episode loss fractions.
	LossAlpha float64
	// HistoryWindow bounds how much per-link event history is retained for
	// feature extraction.
	HistoryWindow sim.Time
}

// DefaultConfig returns production-plausible detection settings: three
// episodes within two hours flags a flapping link (episodes on marginal
// links arrive tens of minutes apart, §1).
func DefaultConfig() Config {
	return Config{
		FlapWindow:    2 * sim.Hour,
		FlapThreshold: 3,
		LossAlpha:     0.3,
		HistoryWindow: 30 * sim.Day,
	}
}

// Counters is the externally visible per-link monitoring state.
type Counters struct {
	Health        faults.Health // last observed health
	Downs         int           // down transitions seen
	Recoveries    int
	FlapEpisodes  int
	LossEWMA      float64
	FlapsInWindow int
	LastChange    sim.Time
	FlaggedFlappy bool // currently flagged by the flap detector
}

type linkState struct {
	Counters
	flapTimes  []sim.Time
	downTimes  []sim.Time
	recovTimes []sim.Time
}

// Monitor is the telemetry plane for one network.
type Monitor struct {
	eng   *sim.Engine
	net   *topology.Network
	cfg   Config
	links []linkState
	bus   *bus.Bus
}

// NewMonitor creates a monitor. Subscribe it to the fault injector with
// injector.Subscribe(m).
func NewMonitor(eng *sim.Engine, net *topology.Network, cfg Config) *Monitor {
	m := &Monitor{eng: eng, net: net, cfg: cfg, links: make([]linkState, len(net.Links))}
	return m
}

// PublishTo makes the monitor the pipeline's Sense stage: every alert is
// published on the bus's sense.alert topic, where Triage and Plan consume
// it. That topic is the only way alerts leave the monitor.
func (m *Monitor) PublishTo(b *bus.Bus) { m.bus = b }

// Counters returns a copy of the monitoring state for a link.
func (m *Monitor) Counters(id topology.LinkID) Counters {
	ls := &m.links[id]
	ls.prune(m.eng.Now(), m.cfg)
	c := ls.Counters
	c.FlapsInWindow = countSince(ls.flapTimes, m.eng.Now()-m.cfg.FlapWindow)
	return c
}

// emit publishes an alert on the attached bus, if any.
func (m *Monitor) emit(a bus.Alert) {
	if m.bus != nil {
		m.bus.Publish(bus.TopicAlert, a)
	}
}

// LinkStateChanged implements faults.Listener.
func (m *Monitor) LinkStateChanged(l *topology.Link, from, to faults.Health, at sim.Time) {
	ls := &m.links[l.ID]
	ls.Health = to
	ls.LastChange = at
	switch to {
	case faults.Down:
		ls.Downs++
		ls.downTimes = append(ls.downTimes, at)
		ls.FlaggedFlappy = false
		m.emit(bus.Alert{Kind: bus.AlertLinkDown, Link: l, At: at})
	case faults.Healthy:
		ls.Recoveries++
		ls.recovTimes = append(ls.recovTimes, at)
		ls.FlaggedFlappy = false
		m.emit(bus.Alert{Kind: bus.AlertLinkRecovered, Link: l, At: at})
	case faults.Flapping:
		// The Flapping ground-truth state is not directly observable;
		// telemetry flags flapping only from episode statistics below.
	}
}

// LinkFlapped implements faults.Listener.
func (m *Monitor) LinkFlapped(l *topology.Link, dur sim.Time, loss float64, at sim.Time) {
	ls := &m.links[l.ID]
	ls.FlapEpisodes++
	ls.flapTimes = append(ls.flapTimes, at)
	ls.LossEWMA = m.cfg.LossAlpha*loss + (1-m.cfg.LossAlpha)*ls.LossEWMA
	ls.prune(at, m.cfg)
	inWindow := countSince(ls.flapTimes, at-m.cfg.FlapWindow)
	if inWindow >= m.cfg.FlapThreshold && !ls.FlaggedFlappy {
		ls.FlaggedFlappy = true
		m.emit(bus.Alert{
			Kind: bus.AlertLinkFlapping, Link: l, At: at,
			Detail: fmt.Sprintf("%d episodes in %v", inWindow, m.cfg.FlapWindow),
		})
	}
}

// prune drops history beyond the retention window.
func (ls *linkState) prune(now sim.Time, cfg Config) {
	cut := now - cfg.HistoryWindow
	ls.flapTimes = dropBefore(ls.flapTimes, cut)
	ls.downTimes = dropBefore(ls.downTimes, cut)
	ls.recovTimes = dropBefore(ls.recovTimes, cut)
}

func dropBefore(ts []sim.Time, cut sim.Time) []sim.Time {
	i := 0
	for i < len(ts) && ts[i] < cut {
		i++
	}
	if i == 0 {
		return ts
	}
	return append(ts[:0], ts[i:]...)
}

func countSince(ts []sim.Time, cut sim.Time) int {
	n := 0
	for i := len(ts) - 1; i >= 0 && ts[i] >= cut; i-- {
		n++
	}
	return n
}

// Features is the per-link feature vector for failure prediction (§4:
// "machine learning techniques to predict failures"). All features are
// computable from observable telemetry alone.
type Features struct {
	Flaps1d    float64
	Flaps7d    float64
	Downs30d   float64
	Recov14d   float64 // repairs in the last fortnight: recurrence signal
	LossEWMA   float64
	HoursSince float64 // hours since last state change
}

// Vector returns the features in a fixed order for the linear model.
func (f Features) Vector() []float64 {
	return []float64{f.Flaps1d, f.Flaps7d, f.Downs30d, f.Recov14d, f.LossEWMA, f.HoursSince}
}

// Snapshot extracts the current feature vector for a link.
func (m *Monitor) Snapshot(id topology.LinkID) Features {
	ls := &m.links[id]
	now := m.eng.Now()
	ls.prune(now, m.cfg)
	return Features{
		Flaps1d:    float64(countSince(ls.flapTimes, now-sim.Day)),
		Flaps7d:    float64(countSince(ls.flapTimes, now-7*sim.Day)),
		Downs30d:   float64(countSince(ls.downTimes, now-30*sim.Day)),
		Recov14d:   float64(countSince(ls.recovTimes, now-14*sim.Day)),
		LossEWMA:   ls.LossEWMA,
		HoursSince: now.Sub(ls.LastChange).Hours(),
	}
}
