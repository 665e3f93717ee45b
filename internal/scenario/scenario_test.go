package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workforce"
)

func TestBuildStandardWorld(t *testing.T) {
	w, err := Build(Options{Seed: 1, Level: core.L3, Techs: 2, Robots: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Fleet.Units()) == 0 {
		t.Fatal("no robots deployed")
	}
	// Count the crew by reserving every idle technician, then free them.
	var techs []*workforce.Technician
	for tech := w.Crew.FindTech(); tech != nil; tech = w.Crew.FindTech() {
		tech.Reserve()
		techs = append(techs, tech)
	}
	for _, tech := range techs {
		tech.Release()
	}
	if len(techs) != 2 {
		t.Fatal("techs")
	}
	w.Run(10 * sim.Day)
	if w.Eng.Now() != 10*sim.Day {
		t.Fatal("run")
	}
	if a := w.TrafficAvailability(routing.UniformMatrix(w.Net, 100)); a < 0.99 {
		t.Fatalf("fresh world availability %v", a)
	}
}

// TestT1Shape verifies the paper's headline: robotic automation shrinks the
// service window from hours/days to minutes — at least an order of
// magnitude between L0 and L3 medians.
func TestT1Shape(t *testing.T) {
	tab, fig, err := T1ServiceWindow(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	// Parse medians back out of the formatted cells via the figure instead:
	// compare the x-value at which each CDF reaches 0.5.
	med := map[string]float64{}
	for _, s := range fig.Series {
		for i, f := range s.Y {
			if f >= 0.5 {
				med[s.Name] = s.X[i]
				break
			}
		}
	}
	if med["L0"] == 0 || med["L3"] == 0 {
		t.Fatalf("missing medians: %v", med)
	}
	if med["L3"] >= med["L0"]/10 {
		t.Fatalf("L3 median %vh not >=10x better than L0 %vh", med["L3"], med["L0"])
	}
	// L3 repairs in minutes.
	if med["L3"] > 1 {
		t.Fatalf("L3 median %vh, want under an hour", med["L3"])
	}
	if !strings.Contains(tab.String(), "L0") {
		t.Fatal("table rendering")
	}
}

// TestT2Shape verifies reseat resolves the plurality of incidents — the
// paper's "surprisingly effective" first rung.
func TestT2Shape(t *testing.T) {
	tab, err := T2Escalation(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Row 0 is reseat; its share must be the largest.
	var reseatPct, maxPct float64
	for i, r := range tab.Rows {
		var pct float64
		if _, err := sscan(r[2], &pct); err != nil {
			t.Fatalf("bad pct cell %q", r[2])
		}
		if i == 0 {
			reseatPct = pct
		}
		if pct > maxPct {
			maxPct = pct
		}
	}
	if reseatPct < maxPct {
		t.Fatalf("reseat share %v is not the largest (%v)", reseatPct, maxPct)
	}
	if reseatPct < 30 {
		t.Fatalf("reseat resolves only %v%%", reseatPct)
	}
}

// TestF2Shape verifies availability improves monotonically enough with
// automation level (L3 must beat L0).
func TestF2Shape(t *testing.T) {
	fig, tab, err := F2Availability(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(fig.Series) != 2 {
		t.Fatal("shape")
	}
	av := fig.Series[0].Y
	if av[3] <= av[0] {
		t.Fatalf("L3 availability %v <= L0 %v", av[3], av[0])
	}
	// Down-link-hours at L3 lower than at L0.
	dlh := fig.Series[1].Y
	if dlh[3] >= dlh[0] {
		t.Fatalf("L3 down-link-hours %v >= L0 %v", dlh[3], dlh[0])
	}
}

// TestF3Shape verifies the cascade ordering: humans disturb more than
// robots, and pre-draining removes most loaded-link disturbances.
func TestF3Shape(t *testing.T) {
	tab, fig, err := F3Cascades(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatal("rows")
	}
	trans := fig.Series[0].Y
	loaded := fig.Series[1].Y
	if trans[1] >= trans[0] {
		t.Fatalf("robot transient cascades %v >= human %v", trans[1], trans[0])
	}
	if loaded[2] >= loaded[1] {
		t.Fatalf("pre-drain loaded disturbances %v >= no-drain %v", loaded[2], loaded[1])
	}
}

// TestT3Shape verifies proactive maintenance reduces reactive load.
func TestT3Shape(t *testing.T) {
	p := QuickRepairParams()
	p.Duration = 180 * sim.Day
	tab, err := T3Proactive(Serial(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatal("rows")
	}
	var reactive [4]float64
	var proTasks [4]float64
	for i, r := range tab.Rows {
		if _, err := sscan(r[2], &reactive[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(r[4], &proTasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if proTasks[1] == 0 {
		t.Fatal("threshold policy ran no proactive tasks")
	}
	if reactive[1] >= reactive[0]*1.1 {
		t.Fatalf("proactive policy increased reactive tickets: %v vs %v", reactive[1], reactive[0])
	}
}

func TestT4Runs(t *testing.T) {
	p := QuickRepairParams()
	p.Duration = 150 * sim.Day
	tab, err := T4Predictor(Serial(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 && len(tab.Notes) == 0 {
		t.Fatal("empty predictor table")
	}
}

// TestT5Shape verifies the right-provisioning ordering: faster repair,
// fewer spares.
func TestT5Shape(t *testing.T) {
	tab, err := T5RightProvisioning(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatal("rows")
	}
	var first, last float64
	if _, err := sscan(tab.Rows[0][2], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[len(tab.Rows)-1][2], &last); err != nil {
		t.Fatal(err)
	}
	if last > first {
		t.Fatalf("fastest regime needs more spares (%v) than slowest (%v)", last, first)
	}
	// Robotic repair cuts overprovisioning substantially vs the human-days
	// regime (the measured L3 MTTR still includes human-handled cable and
	// switch work, so it is hours, not pure robot-minutes).
	if last > first/2 {
		t.Fatalf("robot regime (%v spares) not well below human regime (%v)", last, first)
	}
}

// TestF4Shape verifies the topology tradeoff: the expander family wins
// throughput, the Clos family wins maintainability.
func TestF4Shape(t *testing.T) {
	fig, tab, err := F4Maintainability(Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(tab.Rows) != 4 {
		t.Fatal("shape")
	}
	get := func(name string) (x, y float64) {
		for _, s := range fig.Series {
			if strings.HasPrefix(s.Name, name) {
				return s.X[0], s.Y[0]
			}
		}
		t.Fatalf("missing series %s", name)
		return 0, 0
	}
	jfT, jfI := get("jellyfish")
	lsT, lsI := get("leaf-spine")
	if jfT <= lsT {
		t.Fatalf("jellyfish per-switch goodput %v <= leaf-spine %v at equal budget", jfT, lsT)
	}
	if jfI >= lsI {
		t.Fatalf("jellyfish maintainability %v >= leaf-spine %v", jfI, lsI)
	}
}

func TestT6MeetsPaperTimings(t *testing.T) {
	tab, err := T6RobotTimings(Serial(), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	var inspectMean, cleanMean float64
	if _, err := sscan(tab.Rows[0][1], &inspectMean); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[2][1], &cleanMean); err != nil {
		t.Fatal(err)
	}
	if inspectMean >= 30 {
		t.Fatalf("8-core inspection mean %vs, paper claims <30s", inspectMean)
	}
	if cleanMean < 60 || cleanMean > 600 {
		t.Fatalf("clean cycle mean %vs, paper claims a few minutes", cleanMean)
	}
}

func TestF6Shape(t *testing.T) {
	fig, err := F6FlapLatency(Serial(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatal("series")
	}
	// Integrated tail burden under L0 exceeds L3 (repair is much faster).
	sum := func(ys []float64) float64 {
		var s float64
		for _, y := range ys {
			s += y
		}
		return s
	}
	l0 := sum(fig.Series[0].Y)
	l3 := sum(fig.Series[1].Y)
	if l3 >= l0 {
		t.Fatalf("L3 tail burden %v >= L0 %v", l3, l0)
	}
}

func TestT7Shape(t *testing.T) {
	p := QuickRepairParams()
	p.Duration = 120 * sim.Day
	tab, err := T7AICluster(Serial(), p)
	if err != nil {
		t.Fatal(err)
	}
	var l0Lost, l3Lost float64
	if _, err := sscan(tab.Rows[0][1], &l0Lost); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[1][1], &l3Lost); err != nil {
		t.Fatal(err)
	}
	if l3Lost >= l0Lost {
		t.Fatalf("L3 GPU-hours lost %v >= L0 %v", l3Lost, l0Lost)
	}
}

func TestT8Shape(t *testing.T) {
	tab, err := T8Diversity(Serial(), 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatal("rows")
	}
	var stdPct, divPct float64
	if _, err := sscan(tab.Rows[0][2], &stdPct); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[3][2], &divPct); err != nil {
		t.Fatal(err)
	}
	if divPct > stdPct {
		t.Fatalf("32-model fleet succeeds more (%v%%) than standardized (%v%%)", divPct, stdPct)
	}
}

// sscan parses a float out of a formatted cell.
func sscan(cell string, out *float64) (int, error) {
	return fmt.Sscan(cell, out)
}

// TestA1Shape verifies the repeat-window mechanism: with a window, repeat
// tickets exist and start escalated; with none, no repeats are detected.
func TestA1Shape(t *testing.T) {
	tab, err := A1RepeatWindow(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatal("rows")
	}
	var noneRepeats, longRepeats float64
	if _, err := sscan(tab.Rows[0][2], &noneRepeats); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[3][2], &longRepeats); err != nil {
		t.Fatal(err)
	}
	if noneRepeats != 0 {
		t.Fatalf("zero window detected %v repeats", noneRepeats)
	}
	if longRepeats == 0 {
		t.Fatal("45d window detected no repeats")
	}
}

// TestA2Shape verifies mobility-scope ordering: wider scope, more of the
// repair load served robotically.
func TestA2Shape(t *testing.T) {
	tab, err := A2MobilityScope(Serial(), QuickRepairParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatal("rows")
	}
	var rackShare, hallShare float64
	if _, err := sscan(tab.Rows[0][4], &rackShare); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[2][4], &hallShare); err != nil {
		t.Fatal(err)
	}
	if hallShare <= rackShare {
		t.Fatalf("hall scope share %v <= rack scope %v", hallShare, rackShare)
	}
}
