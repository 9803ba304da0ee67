package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"chronos"
	"chronos/internal/ring"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

// newFleet boots n in-process chronosd replicas wired into one ring and
// returns a fleet client over them plus their listeners.
func newFleet(t *testing.T, n int, mkCfg func(i int) server.Config) (*Client, []*httptest.Server) {
	t.Helper()
	servers := make([]*server.Server, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = server.New(mkCfg(i))
		listeners[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(listeners[i].Close)
		urls[i] = listeners[i].URL
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}
	c, err := NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	return c, listeners
}

// servedAt reads one replica's count of 200 answers on endpoint from its
// metrics.
func servedAt(t *testing.T, c *Client, base, endpoint string) int {
	t.Helper()
	text, err := New(base, WithHTTPClient(c.http)).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prefix := `chronosd_requests_total{endpoint="` + endpoint + `",code="200"} `
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			n, err := strconv.Atoi(strings.TrimPrefix(line, prefix))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestFleetClientRoundRobinFailover is the client's fleet contract: plans
// spread evenly across the replicas, every replica answers with the same
// plan, and a replica that cannot be reached costs a failover to the next
// one, not a failed request.
func TestFleetClientRoundRobinFailover(t *testing.T) {
	c, listeners := newFleet(t, 3, func(i int) server.Config { return server.Config{} })
	ctx := context.Background()
	econ := chronos.Econ{Theta: 1e-4, UnitPrice: 1}
	plan := func(i int) {
		t.Helper()
		job := chronos.JobParams{
			Tasks: 10 + i, Deadline: 100, TMin: 10, Beta: 1.5,
			TauEst: 30, TauKill: 60,
		}
		got, err := c.Plan(ctx, PlanRequest{Job: job, Econ: econ})
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		want, err := chronos.OptimizeBest(job, econ)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan != want {
			t.Fatalf("plan %d = %+v, want %+v", i, got.Plan, want)
		}
	}
	for i := 0; i < 12; i++ {
		plan(i)
	}
	for i, base := range c.Replicas() {
		if n := servedAt(t, c, base, "/v1/plan"); n != 4 {
			t.Errorf("replica %d served %d of 12 plans, want 4", i, n)
		}
	}

	// With one replica down, every plan still succeeds: the 4 that land on
	// it fail over to the next replica in order.
	listeners[1].Close()
	for i := 0; i < 12; i++ {
		plan(i)
	}
	total := 0
	for _, i := range []int{0, 2} {
		total += servedAt(t, c, c.Replicas()[i], "/v1/plan")
	}
	if total != 20 {
		t.Errorf("survivors served %d plans in total, want 20", total)
	}
}

// TestClientDecodesErrorEnvelope: a 429 tenant rejection surfaces as
// *client.Error carrying the unified envelope's code and trace ID.
func TestClientDecodesErrorEnvelope(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"tiny": {Budget: 1, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)

	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	_, err = c.Plan(context.Background(), PlanRequest{Tenant: "tiny", Job: job})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *client.Error, got %v", err)
	}
	if apiErr.Status != 429 {
		t.Errorf("status = %d, want 429", apiErr.Status)
	}
	if apiErr.Code != CodeBudgetExhausted {
		t.Errorf("code = %q, want %q", apiErr.Code, CodeBudgetExhausted)
	}
	if apiErr.TraceID == "" {
		t.Error("trace ID missing from error envelope")
	}
	if !strings.Contains(apiErr.Message, "tiny") {
		t.Errorf("message %q does not name the tenant", apiErr.Message)
	}
}

// TestClientAdmitAndBatch exercises the remaining typed endpoints against a
// solo replica.
func TestClientAdmitAndBatch(t *testing.T) {
	reg, err := tenant.NewRegistry(map[string]tenant.Limits{
		"team": {Budget: 5000, Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	job := chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60}
	dec, err := c.Admit(ctx, AdmitRequest{Tenant: "team", Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || dec.Plan == nil {
		t.Fatalf("admit = %+v, want admitted with a plan", dec)
	}

	batch, err := c.PlanBatch(ctx, BatchRequest{
		Jobs:   []BatchJob{{Job: job}, {Job: job, Strategy: "clone"}},
		Budget: 5000,
		Econ:   chronos.Econ{Theta: 1e-4, UnitPrice: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Plans) != 2 {
		t.Fatalf("batch plans = %d, want 2", len(batch.Plans))
	}
	if batch.TotalMachineTime > batch.Budget {
		t.Errorf("allocation %g exceeds budget %g", batch.TotalMachineTime, batch.Budget)
	}
}

// TestClientAdmitBatchFleet sends one admission batch into a 3-replica
// fleet: a single replica decides the whole batch, and the results come
// back in input order with every job's plan.
func TestClientAdmitBatchFleet(t *testing.T) {
	mkReg := func() *tenant.Registry {
		reg, err := tenant.NewRegistry(map[string]tenant.Limits{
			"team": {Budget: 1e6, Theta: 1e-4, UnitPrice: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	c, _ := newFleet(t, 3, func(i int) server.Config {
		return server.Config{Tenants: mkReg()}
	})
	ctx := context.Background()

	// Distinct job shapes spread plan keys over several owners.
	jobs := make([]AdmitBatchJob, 9)
	for i := range jobs {
		jobs[i] = AdmitBatchJob{Job: chronos.JobParams{
			Tasks: 10 + i, Deadline: 100, TMin: 10, Beta: 1.5,
			TauEst: 30, TauKill: 60,
		}}
	}
	resp, err := c.AdmitBatch(ctx, AdmitBatchRequest{Tenant: "team", Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(jobs))
	}
	if resp.Admitted != len(jobs) {
		t.Fatalf("admitted %d of %d under a huge budget", resp.Admitted, len(jobs))
	}
	for i, res := range resp.Results {
		if !res.Admitted || res.Plan == nil {
			t.Fatalf("job %d: %+v, want admitted with a plan", i, res)
		}
		// Each job shape has a distinct optimal plan; recompute it to prove
		// the results kept input order.
		want, err := chronos.OptimizeBest(jobs[i].Job, chronos.Econ{Theta: 1e-4, UnitPrice: 1})
		if err != nil {
			t.Fatal(err)
		}
		if *res.Plan != want {
			t.Errorf("job %d: plan %+v, want %+v — results reordered",
				i, *res.Plan, want)
		}
	}
	if resp.BudgetRemaining <= 0 || resp.BudgetRemaining >= 1e6 {
		t.Errorf("budgetRemaining = %g, want in (0, 1e6)", resp.BudgetRemaining)
	}

	served := 0
	for _, base := range c.Replicas() {
		served += servedAt(t, c, base, "/v1/admit/batch")
	}
	if served != 1 {
		t.Errorf("%d replicas answered the batch, want 1", served)
	}
}

func TestNewPanicsOnEmptyURL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal(`New("   ") returned instead of panicking`)
		}
	}()
	_ = New("   ")
}
