// Package inventory manages spare parts and answers the paper's
// right-provisioning question (§2): how much redundancy a fabric needs at a
// given repair speed, and therefore how much overprovisioning faster
// (robotic) repair eliminates.
package inventory

import (
	"fmt"
	"math"

	"repro/internal/detsort"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PartKind classifies a spare part.
type PartKind uint8

// Spare part kinds.
const (
	PartXcvr PartKind = iota
	PartCable
	PartLineCard
	PartCleaningSupplies // consumable wet/dry cleaning media
)

var partNames = [...]string{
	PartXcvr: "transceiver", PartCable: "cable",
	PartLineCard: "line-card", PartCleaningSupplies: "cleaning-supplies",
}

// String returns the part kind name.
func (k PartKind) String() string {
	if int(k) < len(partNames) {
		return partNames[k]
	}
	return fmt.Sprintf("part(%d)", uint8(k))
}

// Pool is a stocked spare-part pool with restocking lead time. Robots carry
// spares from the pool ("the robots can carry spares", §3.3.2); technicians
// draw from the same stock.
type Pool struct {
	eng *sim.Engine

	stock     map[PartKind]int
	reorderAt map[PartKind]int
	orderQty  map[PartKind]int
	leadTime  sim.Time
	onOrder   map[PartKind]int

	Stockouts int // draws that found the shelf empty
	Consumed  map[PartKind]int
}

// NewPool creates a pool with the given initial stock levels, reorder
// points and restock lead time.
func NewPool(eng *sim.Engine, initial map[PartKind]int, leadTime sim.Time) *Pool {
	p := &Pool{
		eng:       eng,
		stock:     make(map[PartKind]int),
		reorderAt: make(map[PartKind]int),
		orderQty:  make(map[PartKind]int),
		onOrder:   make(map[PartKind]int),
		leadTime:  leadTime,
		Consumed:  make(map[PartKind]int),
	}
	for k, v := range initial {
		p.stock[k] = v
		p.reorderAt[k] = v / 2
		p.orderQty[k] = v
	}
	return p
}

// DefaultStock returns a stock plan sized to a network: spares proportional
// to the installed base.
func DefaultStock(net *topology.Network) map[PartKind]int {
	xcvrs, cables := 0, 0
	for _, l := range net.Links {
		if l.Cable.Class.NeedsTransceiver() {
			xcvrs += 2
		}
		cables++
	}
	return map[PartKind]int{
		PartXcvr:             max(6, xcvrs/20),
		PartCable:            max(4, cables/25),
		PartLineCard:         3,
		PartCleaningSupplies: 200,
	}
}

// Stock returns the current shelf count. The simulation only takes parts;
// the robot and workforce tests read shelf counts through it.
//
//lint:allow deadexport robot's TestReplaceXcvrConsumesSpare, TestStockoutReportsWithoutTouchingLink and TestCleaningSuppliesStockout and workforce's TestStockout read shelf counts through it
func (p *Pool) Stock(k PartKind) int { return p.stock[k] }

// Take draws one part, triggering a reorder when the shelf crosses the
// reorder point. It returns false on a stockout (the repair must wait or
// the actor retries later).
func (p *Pool) Take(k PartKind) bool {
	if p.stock[k] <= 0 {
		p.Stockouts++
		p.reorder(k)
		return false
	}
	p.stock[k]--
	p.Consumed[k]++
	if p.stock[k] <= p.reorderAt[k] {
		p.reorder(k)
	}
	return true
}

func (p *Pool) reorder(k PartKind) {
	if p.onOrder[k] > 0 {
		return
	}
	qty := p.orderQty[k]
	if qty <= 0 {
		qty = 1
	}
	p.onOrder[k] = qty
	p.eng.After(p.leadTime, "restock", func() {
		p.stock[k] += p.onOrder[k]
		p.onOrder[k] = 0
	})
}

// --- right-provisioning ---------------------------------------------------

// ProvisioningInput describes one redundancy group: n links that share k
// spares, each failing at annualRate, repaired in mttr on average.
type ProvisioningInput struct {
	Links      int
	AnnualRate float64  // failures per link-year
	MTTR       sim.Time // mean time to repair
	Target     float64  // required probability that failures <= spares
}

// RedundancyNeeded returns the smallest number of spare links k such that
// the probability of more than k concurrent failures stays below 1-Target,
// treating concurrent failures as Poisson with mean
// links * annualRate * (MTTR/year) — the standard machine-repair
// approximation when repairs are fast relative to failures.
func RedundancyNeeded(in ProvisioningInput) int {
	m := float64(in.Links) * in.AnnualRate * float64(in.MTTR) / float64(sim.Year)
	if m <= 0 {
		return 0
	}
	// Walk the Poisson CDF.
	p := math.Exp(-m) // P(X=0)
	cdf := p
	k := 0
	for cdf < in.Target && k < in.Links {
		k++
		p *= m / float64(k)
		cdf += p
	}
	return k
}

// ProvisioningRow is one line of the right-provisioning table: a repair
// regime and the redundancy it requires.
type ProvisioningRow struct {
	Regime  string
	MTTR    sim.Time
	Spares  int
	CostPct float64 // spares as a percentage of the group size
}

// ProvisioningSweep evaluates RedundancyNeeded across repair regimes for a
// group, producing the paper's overprovisioning-vs-repair-speed tradeoff.
func ProvisioningSweep(links int, annualRate, target float64, regimes map[string]sim.Time) []ProvisioningRow {
	out := make([]ProvisioningRow, 0, len(regimes))
	// Sorted-name iteration keeps rows with equal MTTR in a stable order
	// (the insertion sort below is stable, so ties keep this base order).
	for _, name := range detsort.Keys(regimes) {
		mttr := regimes[name]
		k := RedundancyNeeded(ProvisioningInput{
			Links: links, AnnualRate: annualRate, MTTR: mttr, Target: target,
		})
		out = append(out, ProvisioningRow{
			Regime: name, MTTR: mttr, Spares: k,
			CostPct: 100 * float64(k) / float64(links),
		})
	}
	// Stable ordering: slowest repairs first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].MTTR > out[j-1].MTTR; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
