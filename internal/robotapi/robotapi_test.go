package robotapi

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/robot"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/vision"
)

func newService(t *testing.T, seed uint64) (*Service, *topology.Network, *faults.Injector) {
	t.Helper()
	n, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4, Uplinks: 1,
		FabricGbps: 400, HostGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	fcfg := faults.DefaultConfig()
	fcfg.AnnualRate = map[faults.Cause]float64{}
	fcfg.FixProb[faults.Reseat][faults.Oxidation] = 1
	inj := faults.NewInjector(eng, n, fcfg)
	vis := vision.New(eng, vision.DefaultConfig(), 8)
	pool := inventory.NewPool(eng, inventory.DefaultStock(n), 2*sim.Day)
	rcfg := robot.DefaultConfig()
	rcfg.PrimitiveFailProb = 0
	fleet := robot.NewFleet(eng, n, inj, vis, pool, rcfg)
	fleet.DeployPerRow()
	return NewService(eng, n, inj, fleet), n, inj
}

func sepLinkID(t *testing.T, n *topology.Network) int {
	t.Helper()
	for _, l := range n.SwitchLinks() {
		if l.HasSeparableFiber() {
			return int(l.ID)
		}
	}
	t.Fatal("no separable link")
	return -1
}

func TestCapabilities(t *testing.T) {
	svc, _, _ := newService(t, 1)
	c := svc.Capabilities()
	if len(c.Units) == 0 {
		t.Fatal("no units")
	}
	if len(c.Actions) != 3 {
		t.Fatalf("actions = %v", c.Actions)
	}
	for _, a := range c.Actions {
		if a == "replace-cable" || a == "replace-switch-port" {
			t.Fatalf("robot claims human-only action %s", a)
		}
	}
}

func TestPlanPreReportsContactedCables(t *testing.T) {
	svc, n, _ := newService(t, 2)
	id := sepLinkID(t, n)
	p, err := svc.Plan(TaskSpec{Link: id, End: "A", Action: "reseat"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatalf("plan infeasible: %s", p.Reason)
	}
	if len(p.CablesAtRisk) == 0 {
		t.Fatal("plan pre-reports no contacted cables at a dense ToR")
	}
	if len(p.RiskNames) != len(p.CablesAtRisk) {
		t.Fatal("risk names mismatch")
	}
	if p.EstSeconds <= 0 {
		t.Fatal("no duration estimate")
	}
	if p.Unit == "" {
		t.Fatal("no unit assigned")
	}
}

func TestPlanInfeasibleForHumanActions(t *testing.T) {
	svc, n, _ := newService(t, 3)
	id := sepLinkID(t, n)
	p, err := svc.Plan(TaskSpec{Link: id, End: "A", Action: "replace-cable"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible {
		t.Fatal("cable replacement planned as robotic")
	}
	if !strings.Contains(p.Reason, "technician") {
		t.Fatalf("reason: %s", p.Reason)
	}
}

func TestExecuteRepairsFault(t *testing.T) {
	svc, n, inj := newService(t, 4)
	id := sepLinkID(t, n)
	if err := svc.Inject(id, "oxidation"); err != nil {
		t.Fatal(err)
	}
	st := inj.State(topology.LinkID(id))
	res, err := svc.Execute(TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Fixed {
		t.Fatalf("result: %+v", res)
	}
	if res.LinkHealth != "healthy" {
		t.Fatalf("health: %s", res.LinkHealth)
	}
	if res.Seconds <= 0 {
		t.Fatal("no duration")
	}
}

func TestInjectValidation(t *testing.T) {
	svc, n, _ := newService(t, 5)
	if err := svc.Inject(-1, "oxidation"); err == nil {
		t.Fatal("negative link accepted")
	}
	if err := svc.Inject(0, "gremlins"); err == nil {
		t.Fatal("unknown cause accepted")
	}
	id := sepLinkID(t, n)
	if err := svc.Inject(id, "oxidation"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Inject(id, "oxidation"); err == nil {
		t.Fatal("double inject accepted")
	}
}

func TestHealthReport(t *testing.T) {
	svc, n, _ := newService(t, 6)
	rep := svc.Health()
	if rep.Links != len(n.Links) {
		t.Fatal("link count")
	}
	if len(rep.Down) != 0 {
		t.Fatal("healthy world reports down links")
	}
	id := sepLinkID(t, n)
	if err := svc.Inject(id, "xcvr-dead"); err != nil {
		t.Fatal(err)
	}
	rep = svc.Health()
	if len(rep.Down) != 1 {
		t.Fatalf("down = %v", rep.Down)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := ParseEnd("C"); err == nil {
		t.Fatal("bad end accepted")
	}
	if e, _ := ParseEnd("b"); e != faults.EndB {
		t.Fatal("lowercase end")
	}
	if _, err := ParseAction("levitate"); err == nil {
		t.Fatal("bad action accepted")
	}
	if a, _ := ParseAction("clean"); a != faults.Clean {
		t.Fatal("clean parse")
	}
	if _, err := ParseCause("bad"); err == nil {
		t.Fatal("bad cause accepted")
	}
	svc, _, _ := newService(t, 7)
	if _, err := svc.Plan(TaskSpec{Link: 10_000, End: "A", Action: "reseat"}); err == nil {
		t.Fatal("out of range link accepted")
	}
	if _, err := svc.Execute(TaskSpec{Link: 0, End: "Q", Action: "reseat"}); err == nil {
		t.Fatal("bad end accepted by execute")
	}
}

func TestOverTCPEndToEnd(t *testing.T) {
	svc, n, inj := newService(t, 8)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialClient(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	caps, err := c.Capabilities(ctx)
	if err != nil || len(caps.Units) == 0 {
		t.Fatalf("capabilities over tcp: %v %+v", err, caps)
	}

	id := sepLinkID(t, n)
	if err := c.Inject(ctx, id, "oxidation"); err != nil {
		t.Fatal(err)
	}
	st := inj.State(topology.LinkID(id))

	plan, err := c.Plan(ctx, TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil || !plan.Feasible {
		t.Fatalf("plan over tcp: %v %+v", err, plan)
	}

	res, err := c.Execute(ctx, TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil || !res.Fixed {
		t.Fatalf("execute over tcp: %v %+v", err, res)
	}

	hr, err := c.Health(ctx)
	if err != nil || len(hr.Down) != 0 {
		t.Fatalf("health over tcp: %v %+v", err, hr)
	}

	// Remote errors propagate.
	if err := c.Inject(ctx, -5, "oxidation"); err == nil {
		t.Fatal("remote error not propagated")
	}
}

func TestTopologyOverTCP(t *testing.T) {
	svc, n, _ := newService(t, 9)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialClient(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topology.DecodeNetwork(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Links) != len(n.Links) || len(got.Devices) != len(n.Devices) {
		t.Fatalf("remote topology mismatch: %d/%d links, %d/%d devices",
			len(got.Links), len(n.Links), len(got.Devices), len(n.Devices))
	}
	for _, d := range got.HopDistances(0, nil) {
		if d < 0 {
			t.Fatal("decoded remote topology disconnected")
		}
	}
}
