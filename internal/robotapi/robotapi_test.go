package robotapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/robot"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/vision"
)

func newService(t testing.TB, seed uint64, mutate func(*faults.Config)) (*Service, *topology.Network, *faults.Injector) {
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
	if mutate != nil {
		mutate(&fcfg)
	}
	inj := faults.NewInjector(eng, n, fcfg)
	vis := vision.New(eng, vision.DefaultConfig(), 8)
	pool := inventory.NewPool(eng, inventory.DefaultStock(n), 2*sim.Day)
	rcfg := robot.DefaultConfig()
	rcfg.PrimitiveFailProb = 0
	fleet := robot.NewFleet(eng, n, inj, vis, pool, rcfg)
	fleet.DeployPerRow()
	return NewService(eng, n, inj, fleet), n, inj
}

func sepLinkID(t testing.TB, n *topology.Network) int {
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
	svc, _, _ := newService(t, 1, nil)
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
	svc, n, _ := newService(t, 2, nil)
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
	svc, n, _ := newService(t, 3, nil)
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
	svc, n, inj := newService(t, 4, nil)
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

// TestExecuteReportsMaskedReseat pins the masked-fix report: a reseat at the
// cause end of a contaminated link that only masks the dirt comes back
// Fixed and Masked, so the caller can tell the fault will recur.
func TestExecuteReportsMaskedReseat(t *testing.T) {
	svc, n, inj := newService(t, 10, func(fc *faults.Config) { fc.ReseatMaskProb = 1 })
	id := sepLinkID(t, n)
	if err := svc.Inject(id, "contamination"); err != nil {
		t.Fatal(err)
	}
	st := inj.State(topology.LinkID(id))
	res, err := svc.Execute(TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Fixed || !res.Masked {
		t.Fatalf("result: %+v", res)
	}
}

func TestInjectValidation(t *testing.T) {
	svc, n, _ := newService(t, 5, nil)
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
	svc, n, _ := newService(t, 6, nil)
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
	svc, _, _ := newService(t, 7, nil)
	if _, err := svc.Plan(TaskSpec{Link: 10_000, End: "A", Action: "reseat"}); err == nil {
		t.Fatal("out of range link accepted")
	}
	if _, err := svc.Execute(TaskSpec{Link: 0, End: "Q", Action: "reseat"}); err == nil {
		t.Fatal("bad end accepted by execute")
	}
}

// serve starts an HTTP server for svc for the test's lifetime and returns
// a client for it.
func serve(t *testing.T, svc *Service) *Client {
	t.Helper()
	srv := httptest.NewServer(Handler(svc))
	t.Cleanup(srv.Close)
	return NewClient(srv.Listener.Addr().String())
}

func TestOverHTTPEndToEnd(t *testing.T) {
	svc, n, inj := newService(t, 8, nil)
	c := serve(t, svc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	caps, err := c.Capabilities(ctx)
	if err != nil || len(caps.Units) == 0 {
		t.Fatalf("capabilities over http: %v %+v", err, caps)
	}

	id := sepLinkID(t, n)
	if err := c.Inject(ctx, id, "oxidation"); err != nil {
		t.Fatal(err)
	}
	st := inj.State(topology.LinkID(id))

	plan, err := c.Plan(ctx, TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil || !plan.Feasible {
		t.Fatalf("plan over http: %v %+v", err, plan)
	}

	res, err := c.Execute(ctx, TaskSpec{Link: id, End: st.CauseEnd.String(), Action: "reseat"})
	if err != nil || !res.Fixed {
		t.Fatalf("execute over http: %v %+v", err, res)
	}

	hr, err := c.Health(ctx)
	if err != nil || len(hr.Down) != 0 {
		t.Fatalf("health over http: %v %+v", err, hr)
	}

	// Remote errors propagate.
	if err := c.Inject(ctx, -5, "oxidation"); err == nil {
		t.Fatal("remote error not propagated")
	}
}

func TestTopologyOverHTTP(t *testing.T) {
	svc, n, _ := newService(t, 9, nil)
	c := serve(t, svc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
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

// TestHandlerStatuses pins each status the robot API answers and what the
// client makes of the failures.
func TestHandlerStatuses(t *testing.T) {
	svc, n, _ := newService(t, 11, nil)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()
	id := sepLinkID(t, n)
	long := `{"link":0,"end":"A","action":"` + strings.Repeat("x", maxBody) + `"}`

	cases := []struct {
		name, method, path, body string
		want                     int
		errText                  string // substring of the "error" field
		has                      string // substring of a 200 body
	}{
		{"health", "GET", "/v1/health", "", http.StatusOK, "", `"down":[],"flapping":[]`},
		{"infeasible plan", "POST", "/v1/plan", `{"link":0,"end":"A","action":"replace-cable"}`, http.StatusOK, "", `"cables_at_risk":[]`},
		{"inject", "POST", "/v1/inject", fmt.Sprintf(`{"link":%d,"cause":"oxidation"}`, id), http.StatusOK, "", ""},
		{"malformed JSON", "POST", "/v1/plan", `{"link":`, http.StatusBadRequest, "unexpected end", ""},
		{"trailing data", "POST", "/v1/plan", `{"link":0} {}`, http.StatusBadRequest, "invalid character", ""},
		{"body over the bound", "POST", "/v1/plan", long, http.StatusBadRequest, "too large", ""},
		{"unknown call", "GET", "/v1/teleport", "", http.StatusNotFound, "", ""},
		{"POST to a read", "POST", "/v1/capabilities", "{}", http.StatusMethodNotAllowed, "", ""},
		{"GET of a call", "GET", "/v1/plan", "", http.StatusMethodNotAllowed, "", ""},
		{"link -1", "POST", "/v1/inject", `{"link":-1,"cause":"oxidation"}`, http.StatusUnprocessableEntity, "link -1 out of range", ""},
		{"bad end", "POST", "/v1/execute", `{"link":0,"end":"Q","action":"reseat"}`, http.StatusUnprocessableEntity, `bad end "Q"`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d %s, want %d", tc.method, tc.path, resp.StatusCode, body, tc.want)
			}
			var obj map[string]any
			if tc.want == http.StatusOK && (json.Unmarshal(body, &obj) != nil || !strings.Contains(string(body), tc.has)) {
				t.Fatalf("200 body %s is not a JSON object containing %s", body, tc.has)
			}
			if tc.errText == "" {
				return
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.errText) {
				t.Fatalf("body %s (%v), want an error containing %q", body, err, tc.errText)
			}
		})
	}

	c := NewClient(srv.Listener.Addr().String())
	t.Run("client error for link -1", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Inject(ctx, -1, "oxidation"); err == nil || err.Error() != "remote inject: robotapi: link -1 out of range" {
			t.Fatalf("client error for link -1: %v", err)
		}
		// The client stays usable after a rejected request.
		if _, err := c.Health(ctx); err != nil {
			t.Fatalf("health after a rejected request: %v", err)
		}
	})
	t.Run("cancelled context", func(t *testing.T) {
		cancelled, stop := context.WithCancel(context.Background())
		stop()
		if _, err := c.Health(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled context: %v", err)
		}
	})
	t.Run("lapsed deadline", func(t *testing.T) {
		// A deadline that lapses while the service is busy ends the call.
		svc.mu.Lock()
		short, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer stop()
		_, err := c.Health(short)
		svc.mu.Unlock()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lapsed deadline: %v", err)
		}
	})
}

// TestConcurrentClientsOverHTTP calls one server from two parallel
// subtests at once: goroutines with their own clients, and goroutines
// sharing one client. Run under -race it checks the client, the handler and
// the shared service.
func TestConcurrentClientsOverHTTP(t *testing.T) {
	svc, n, _ := newService(t, 12, nil)
	srv := httptest.NewServer(Handler(svc))
	t.Cleanup(srv.Close) // the parallel subtests run after this body returns
	addr := srv.Listener.Addr().String()
	id := sepLinkID(t, n)
	spec := TaskSpec{Link: id, End: "A", Action: "reseat"}
	want, err := svc.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	hammer := func(t *testing.T, client func() *Client) {
		t.Parallel()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := client()
				for i := 0; i < 10; i++ {
					p, err := c.Plan(ctx, spec)
					if err != nil || !reflect.DeepEqual(p, want) {
						t.Errorf("plan: %+v, %v; want %+v", p, err, want)
						return
					}
					if h, err := c.Health(ctx); err != nil || h.Links != len(n.Links) {
						t.Errorf("health: %+v, %v", h, err)
						return
					}
					if _, err := c.Capabilities(ctx); err != nil {
						t.Errorf("capabilities: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	t.Run("own clients", func(t *testing.T) {
		hammer(t, func() *Client { return NewClient(addr) })
	})
	shared := NewClient(addr)
	t.Run("one shared client", func(t *testing.T) {
		hammer(t, func() *Client { return shared })
	})
}
