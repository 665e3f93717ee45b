package routing

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// freshEvaluate evaluates tm on a brand-new router replicating r's health
// view and drain set — the ground truth any amount of incremental cache
// maintenance must reproduce byte-identically.
func freshEvaluate(r *Router, tm TrafficMatrix) Assessment {
	ref := NewRouter(r.net, r.health)
	for id, d := range r.drained {
		if d {
			ref.Drain(topology.LinkID(id))
		}
	}
	return evaluate(ref, tm)
}

// evaluate runs EvaluateInto on a fresh workspace, so the Assessment owns
// its slices.
func evaluate(r *Router, tm TrafficMatrix) Assessment {
	var ws Workspace
	return r.EvaluateInto(&ws, tm)
}

// drainedCount counts r's drained links.
func drainedCount(r *Router) int {
	n := 0
	for _, l := range r.net.Links {
		if r.Drained(l.ID) {
			n++
		}
	}
	return n
}

// Differential property: a router maintained with per-link incremental
// invalidation produces byte-identical assessments to one that full-flushes
// after every change, across randomized flap/drain/undrain/repair sequences.
// Random Jellyfish fabrics take one fabric-link transition per evaluation;
// the four studied topology families take bursts of 1–5 transitions on any
// link (the shape of a pre-drain impact set, host links included). After
// every single transition each cached distance field must be exact: equal to
// a fresh BFS, with a tight bitset equal to topology.ShortestPathLinks. No
// transition may run a BFS: right after one that advanced the epoch, no
// cached field carries the new epoch's stamp. Each burst sequence must drain
// a host link while fields are cached: a host is a stub, so the drain must
// discard only the host's own root state, which checkFieldsExact and the
// full-flush comparison then pin.
func TestIncrementalInvalidationMatchesFullFlush(t *testing.T) {
	type fabricCase struct {
		name  string
		net   *topology.Network
		links []*topology.Link
		seed  uint64
		burst bool
	}
	var cases []fabricCase
	for _, seed := range []uint64{1, 2, 3, 7, 11, 23, 42} {
		net := buildRandomFabric(t, 12, 4, 2, seed)
		cases = append(cases, fabricCase{fmt.Sprintf("jellyfish-12x4 seed %d", seed), net, net.SwitchLinks(), seed, false})
	}
	for i, kind := range []string{"fattree", "leafspine", "jellyfish", "xpander"} {
		net := buildTopo(t, kind)
		cases = append(cases, fabricCase{kind + " burst", net, net.Links, uint64(101 + i), true})
	}
	for _, c := range cases {
		down := map[topology.LinkID]bool{}
		health := func(id topology.LinkID) bool { return !down[id] }
		inc := NewRouter(c.net, health)
		ref := NewRouter(c.net, health)
		tm := UniformMatrix(c.net, 700)
		rng := rand.New(rand.NewPCG(c.seed, 0x1f1a9))
		hostDrains := 0
		for step := 0; step < 50; step++ {
			burst := 1
			if c.burst {
				burst = 1 + rng.IntN(5)
			}
			for j := 0; j < burst; j++ {
				l := c.links[rng.IntN(len(c.links))]
				epoch, cached := inc.Epoch(), inc.fields
				switch rng.IntN(4) {
				case 0: // fault onset or flap-down
					down[l.ID] = true
					inc.InvalidateLink(l.ID)
				case 1: // repair or flap-up
					down[l.ID] = false
					inc.InvalidateLink(l.ID)
				case 2:
					inc.Drain(l.ID)
					ref.Drain(l.ID)
					if cached > 0 && inc.Epoch() != epoch && !(l.A.Device.Kind.IsSwitch() && l.B.Device.Kind.IsSwitch()) {
						hostDrains++
					}
				case 3:
					inc.Undrain(l.ID)
					ref.Undrain(l.ID)
				}
				ctx := fmt.Sprintf("%s step %d transition %d", c.name, step, j)
				checkFieldsExact(t, inc, ctx)
				if inc.Epoch() != epoch {
					for i, e := range inc.distCache {
						if e.dist != nil && e.stamp == inc.Epoch() {
							t.Fatalf("%s: the transition recomputed the field toward device %d", ctx, i)
						}
					}
				}
			}
			ref.Invalidate() // the reference router always full-flushes
			a, b := evaluate(inc, tm), evaluate(ref, tm)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s step %d: incremental %v != full-flush %v", c.name, step, a, b)
			}
			if drainedCount(inc) != drainedCount(ref) {
				t.Fatalf("%s step %d: drained count %d != %d",
					c.name, step, drainedCount(inc), drainedCount(ref))
			}
		}
		if c.burst && hostDrains == 0 {
			t.Fatalf("%s: no host link was drained while fields were cached", c.name)
		}
	}
}

// checkFieldsExact asserts that every distance field r holds is exact for
// the live usable subgraph without other roots' stubs (a stub other than the
// root is in no field): its distances equal a fresh BFS over the usable
// links that have no such stub endpoint, its order lists exactly the
// devices it reaches, in nondecreasing distance, and its tight bitset holds
// exactly the links topology.ShortestPathLinks visits over those links.
func checkFieldsExact(t *testing.T, r *Router, ctx string) {
	t.Helper()
	occupied := 0
	for i, e := range r.distCache {
		if e.dist == nil {
			continue
		}
		occupied++
		dst := topology.DeviceID(i)
		usable := func(l *topology.Link) bool {
			for _, d := range [2]topology.DeviceID{l.A.Device.ID, l.B.Device.ID} {
				if d != dst && len(r.net.Neighbors(d)) == 1 {
					return false
				}
			}
			return r.Usable(l)
		}
		want := r.net.HopDistances(dst, usable)
		got := make([]int, len(e.dist))
		for d, k := range e.dist {
			got[d] = int(k)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: cached field toward device %d = %v, fresh BFS %v", ctx, dst, got, want)
		}
		reached := 0
		for _, k := range want {
			if k >= 0 {
				reached++
			}
		}
		if len(e.order) != reached || e.order[0] != int32(dst) || !slices.IsSortedFunc(e.order, func(a, b int32) int { return int(e.dist[a] - e.dist[b]) }) {
			t.Fatalf("%s: BFS order toward device %d = %v, want the %d reached devices by distance", ctx, dst, e.order, reached)
		}
		tight := make([]uint64, len(e.tight))
		r.net.ShortestPathLinks(want, usable, func(l *topology.Link) {
			tight[l.ID>>6] |= 1 << (l.ID & 63)
		})
		if !slices.Equal(e.tight, tight) {
			t.Fatalf("%s: tight bitset toward device %d = %x, ShortestPathLinks %x", ctx, dst, e.tight, tight)
		}
	}
	if occupied != r.fields {
		t.Fatalf("%s: %d occupied field slots, router counts %d", ctx, occupied, r.fields)
	}
}

func TestRepeatedDrainDoesNotBumpEpoch(t *testing.T) {
	n := leafSpine(t, 2, 2, 2, 1)
	r := NewRouter(n, nil)
	l := n.SwitchLinks()[0]
	r.Drain(l.ID)
	e := r.Epoch()
	r.Drain(l.ID)
	if r.Epoch() != e {
		t.Fatalf("repeated Drain bumped epoch %d -> %d", e, r.Epoch())
	}
	if drainedCount(r) != 1 {
		t.Fatalf("DrainedCount = %d after double drain", drainedCount(r))
	}
	r.Undrain(l.ID)
	e2 := r.Epoch()
	if e2 == e {
		t.Fatal("Undrain of a drained link did not bump the epoch")
	}
	r.Undrain(l.ID)
	if r.Epoch() != e2 {
		t.Fatal("repeated Undrain bumped the epoch")
	}
	if drainedCount(r) != 0 {
		t.Fatalf("DrainedCount = %d after undrain", drainedCount(r))
	}
}

// A health transition that does not change usability (Healthy → Flapping:
// the link still carries traffic) must leave every cached entry in place.
func TestInvalidateLinkNoOpWhenUsabilityUnchanged(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 200)
	evaluate(r, tm)
	e, nd := r.Epoch(), r.fields
	if nd == 0 {
		t.Fatal("no distance fields cached after evaluation")
	}
	for _, l := range n.SwitchLinks() {
		r.InvalidateLink(l.ID)
	}
	if r.Epoch() != e || r.fields != nd {
		t.Fatalf("no-op invalidation disturbed the cache: epoch %d->%d, fields %d->%d",
			e, r.Epoch(), nd, r.fields)
	}
}

// linkInvalidator mirrors the production wiring: health transitions evict
// only the entries that crossed the changed link.
type linkInvalidator struct{ r *Router }

func (li linkInvalidator) LinkStateChanged(l *topology.Link, _, _ faults.Health, _ sim.Time) {
	li.r.InvalidateLink(l.ID)
}
func (li linkInvalidator) LinkFlapped(*topology.Link, sim.Time, float64, sim.Time) {}

// Draining a link in the middle of an in-flight flap episode must yield the
// same assessment as a cold router with the same health and drain state.
func TestDrainDuringFlapEpisode(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	eng := sim.NewEngine(9)
	inj := faults.NewInjector(eng, n, faults.DefaultConfig())
	r := NewRouter(n, func(id topology.LinkID) bool { return inj.Observable(id) != faults.Down })
	inj.Subscribe(linkInvalidator{r})
	tm := UniformMatrix(n, 300)

	l := n.SwitchLinks()[0]
	eng.Schedule(sim.Hour, "break", func() { inj.InduceFault(l, faults.Contamination) })
	eng.RunUntil(2 * sim.Hour)
	evaluate(r, tm) // warm caches mid-episode
	r.Drain(l.ID)
	if got, want := evaluate(r, tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("drain during flap episode: %v != fresh %v", got, want)
	}
	r.Undrain(l.ID)
	if got, want := evaluate(r, tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("undrain during flap episode: %v != fresh %v", got, want)
	}
}

// Undraining a link whose peer device has lost all its other links must not
// resurrect stale paths through the isolated device.
func TestUndrainWithPeerDeviceDown(t *testing.T) {
	n := leafSpine(t, 4, 2, 2, 1)
	down := map[topology.LinkID]bool{}
	r := NewRouter(n, func(id topology.LinkID) bool { return !down[id] })
	tm := UniformMatrix(n, 300)
	evaluate(r, tm)

	uplink := n.SwitchLinks()[0]
	spine := uplink.A.Device
	if spine.Kind != topology.SpineSwitch {
		spine = uplink.B.Device
	}
	r.Drain(uplink.ID)
	evaluate(r, tm)
	// Take the peer spine's remaining links down one by one (device down).
	for _, np := range n.Neighbors(spine.ID) {
		if np.Link.ID != uplink.ID {
			down[np.Link.ID] = true
			r.InvalidateLink(np.Link.ID)
		}
	}
	evaluate(r, tm)
	r.Undrain(uplink.ID) // back in service, but it leads to an isolated device
	if got, want := evaluate(r, tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("undrain toward downed device: %v != fresh %v", got, want)
	}
	// Recover the device; everything must match a cold router again.
	for _, np := range n.Neighbors(spine.ID) {
		if down[np.Link.ID] {
			down[np.Link.ID] = false
			r.InvalidateLink(np.Link.ID)
		}
	}
	if got, want := evaluate(r, tm), freshEvaluate(r, tm); !reflect.DeepEqual(got, want) {
		t.Fatalf("after device recovery: %v != fresh %v", got, want)
	}
}

// Steady-state evaluation through a workspace must not allocate: this is
// the per-cell hot loop, asserted here so regressions fail tier-1. At 300
// Gbps no link overloads; at full host injection links do, so the
// satisfaction pass takes the path-factor branch, which must not allocate
// either.
func TestEvaluateSteadyStateZeroAlloc(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 300)
	var ws Workspace
	r.EvaluateInto(&ws, tm) // warm caches and grow buffers
	if allocs := testing.AllocsPerRun(100, func() { r.EvaluateInto(&ws, tm) }); allocs != 0 {
		t.Fatalf("EvaluateInto allocated %.1f/op in steady state", allocs)
	}
	over := UniformMatrix(n, hostInjection(n))
	if a := r.EvaluateInto(&ws, over); a.MaxUtil <= 1 {
		t.Fatalf("full host injection MaxUtil = %.2f, want > 1 (the path-factor branch)", a.MaxUtil)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.EvaluateInto(&ws, over) }); allocs != 0 {
		t.Fatalf("overloaded EvaluateInto allocated %.1f/op in steady state", allocs)
	}
}

// Each //selfmaint:hotpath function inside the router holds at zero
// steady-state allocations individually, not just through EvaluateInto:
// distance-field recycling serves from retained buffers.
func TestHotpathFunctionsSteadyStateZeroAlloc(t *testing.T) {
	n := leafSpine(t, 4, 2, 4, 1)
	r := NewRouter(n, nil)
	tm := UniformMatrix(n, 300)
	var ws Workspace
	r.EvaluateInto(&ws, tm) // warm caches and free lists
	root, _ := r.resolveRoot(tm.Demands[0].Dst)

	// distEntryFor recomputing an evicted field must serve from the
	// distance free list and the retained BFS queue.
	if allocs := testing.AllocsPerRun(100, func() {
		r.evictDist(root)
		r.distEntryFor(root)
	}); allocs != 0 {
		t.Fatalf("evict+recompute distEntryFor allocated %.1f/op", allocs)
	}
}

// The invalidation path allocates nothing once warm: a drain → undrain
// cycle of a fabric link repairs distance fields in place or evicts them,
// and refilling the evicted fields serves from the free list.
func TestDrainUndrainCycleZeroAlloc(t *testing.T) {
	net := buildTopo(t, "fattree")
	r := NewRouter(net, nil)
	tm := UniformMatrix(net, 700)
	var ws Workspace
	r.EvaluateInto(&ws, tm)
	l := net.SwitchLinks()[0]
	cycle := func() {
		r.Drain(l.ID)
		r.Undrain(l.ID)
		for _, d := range tm.Demands {
			root, _ := r.resolveRoot(d.Dst)
			r.distEntryFor(root)
		}
	}
	cached := r.fields
	r.Drain(l.ID)
	if r.fields >= cached {
		t.Fatal("draining the link evicted no distance field; the cycle would miss the refill path")
	}
	r.Undrain(l.ID)
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm drain/undrain cycle allocated %.1f/op, want 0", allocs)
	}
}

// A host-link transition touches no other root: on the k=4 fat-tree and the
// standard hall (a 16×4 leaf-spine with 4 hosts per leaf), after a warm
// Availability, draining and then undraining every host link in turn must
// evict or re-stamp no switch root's field and leave every current
// structure current (the same pointer), and the next Availability must build
// nothing.
func TestHostLinkTransitionTouchesNoOtherRoot(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *topology.Network
	}{{"fattree-k4", buildTopo(t, "fattree")}, {"standard hall", leafSpine(t, 16, 4, 4, 1)}} {
		r := NewRouter(c.net, nil)
		tm := UniformMatrix(c.net, hostInjection(c.net)/40)
		var ws Workspace
		r.Availability(&ws, tm)
		type rootState struct {
			cached bool
			stamp  uint64
			cur    *destState
		}
		snapshot := func() []rootState {
			var s []rootState
			for i, d := range c.net.Devices {
				if d.Kind.IsSwitch() {
					e := r.distCache[i]
					s = append(s, rootState{e.dist != nil, e.stamp, r.destCur[i]})
				}
			}
			return s
		}
		want, fields, free := snapshot(), r.fields, len(r.freeStates)
		if fields == 0 {
			t.Fatalf("%s: no field cached after a warm Availability", c.name)
		}
		check := func(ctx string) {
			t.Helper()
			if got := snapshot(); !slices.Equal(got, want) || r.fields != fields {
				t.Fatalf("%s %s: switch roots' state changed (%d fields, want %d)", c.name, ctx, r.fields, fields)
			}
		}
		for _, h := range c.net.Hosts() {
			for _, np := range c.net.Neighbors(h.ID) {
				r.Drain(np.Link.ID)
				check("after draining " + np.Link.Name())
				r.Undrain(np.Link.ID)
				check("after undraining " + np.Link.Name())
			}
		}
		r.Availability(&ws, tm)
		check("after the next Availability")
		if len(r.freeStates) != free {
			t.Fatalf("%s: the next Availability built structures: %d free, want %d", c.name, len(r.freeStates), free)
		}
	}
}
