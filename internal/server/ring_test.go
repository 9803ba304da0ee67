package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos"
	"chronos/internal/ring"
	"chronos/internal/tenant"
)

// newRingFleet boots n in-process replicas and joins them into one
// consistent-hash ring. Each replica gets its own Server (cache, metrics,
// optional tenant registry via mkCfg) fronted by an httptest listener; ring
// membership is applied after the listeners exist because the URLs are not
// known before.
func newRingFleet(t *testing.T, n int, mkCfg func(i int) Config) ([]*Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = New(mkCfg(i))
		listeners[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(listeners[i].Close)
		urls[i] = listeners[i].URL
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}
	return servers, listeners
}

func getMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// postJSONErr is postJSON without the t.Fatal, safe to call from worker
// goroutines (which must not terminate the test directly).
func postJSONErr(url string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(raw))
}

// metricValue extracts the value of the first metrics line starting with
// prefix ("" when absent).
func metricValue(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	return ""
}

// TestFleetCrossReplicaCacheHit plans one key through replica A and then
// twice through replica B: B solves it itself (a cold answer with A's
// plan), serves the repeat from its own cache, and no replica reads
// another's cache, so exactly A and B hold the entry.
func TestFleetCrossReplicaCacheHit(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := planRequest{Job: testJob(), Econ: testEcon()}

	plan := func(i int) planResponse {
		t.Helper()
		resp := postJSON(t, listeners[i].URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan via replica %d: status = %d, want 200", i, resp.StatusCode)
		}
		return decodeBody[planResponse](t, resp)
	}
	first := plan(0)
	if first.Cached {
		t.Error("first request via A should not be cached")
	}
	second := plan(1)
	if second.Cached {
		t.Error("first request via B was cached; B must solve keys it has not planned itself")
	}
	if second.Plan != first.Plan {
		t.Errorf("plan via B %+v differs from plan via A %+v", second.Plan, first.Plan)
	}
	if repeat := plan(1); !repeat.Cached || repeat.Plan != first.Plan {
		t.Errorf("repeat via B = %+v (cached %v), want B's cached %+v", repeat.Plan, repeat.Cached, first.Plan)
	}

	for i, s := range servers {
		_, misses, entries := s.CacheStats()
		want := 1
		if i == 2 {
			want = 0
		}
		if entries != want || misses != uint64(want) {
			t.Errorf("replica %d: %d entries, %d misses; want %d of each", i, entries, misses, want)
		}
	}
}

// TestFleetAdmitForwarded checks that admission control is never handed to
// another replica: in per-replica budget mode each admit is decided and
// debited by the replica it reached, whose own cache serves its repeat.
func TestFleetAdmitForwarded(t *testing.T) {
	const budget = 1e9
	servers, listeners := newRingFleet(t, 3, func(int) Config {
		return Config{Tenants: testRegistry(t, "etl", budget)}
	})
	areq := admitRequest{Tenant: "etl", Job: testJob()}

	admit := func(i int) admitResponse {
		t.Helper()
		resp := postJSON(t, listeners[i].URL+"/v1/admit", areq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit via replica %d: status = %d, want 200", i, resp.StatusCode)
		}
		dec := decodeBody[admitResponse](t, resp)
		if !dec.Admitted {
			t.Fatalf("admit via replica %d rejected: %+v", i, dec)
		}
		return dec
	}

	for via := range servers {
		spent := admit(via).Plan.MachineTime
		for i, s := range servers {
			want := budget
			if i <= via {
				want -= spent
			}
			if got := s.Tenants().Get("etl").Remaining(); got != want {
				t.Fatalf("after an admit via replica %d: replica %d has %g remaining, want %g", via, i, got, want)
			}
		}
	}

	admit(0)
	if hits, _, _ := servers[0].CacheStats(); hits != 1 {
		t.Errorf("repeated admit via replica 0: %d cache hits there, want 1", hits)
	}
	for i, s := range servers[1:] {
		if hits, _, _ := s.CacheStats(); hits != 0 {
			t.Errorf("replica %d: %d cache hits, want 0", i+1, hits)
		}
	}
}

// TestFleetPinnedStrategyRoutesConsistently pins a strategy and requests
// the same key through every replica: each replica plans it itself and all
// of them return the same pinned-strategy plan, the in-process mirror of
// the scripts/ring-demo.sh smoke.
func TestFleetPinnedStrategyRoutesConsistently(t *testing.T) {
	servers, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	req := planRequest{Job: testJob(), Econ: testEcon(), Strategy: "clone"}
	var first planResponse
	for i, ts := range listeners {
		resp := postJSON(t, ts.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status = %d, want 200", i, resp.StatusCode)
		}
		got := decodeBody[planResponse](t, resp)
		if got.Plan.Strategy != chronos.Clone {
			t.Errorf("replica %d planned %v, want the pinned Clone", i, got.Plan.Strategy)
		}
		if i == 0 {
			first = got
		} else if got.Plan != first.Plan {
			t.Errorf("replica %d plan %+v differs from replica 0's %+v", i, got.Plan, first.Plan)
		}
		if _, misses, _ := servers[i].CacheStats(); misses != 1 {
			t.Errorf("replica %d solved the key %d times, want 1", i, misses)
		}
	}
}

// TestFleetConcurrentMixedTraffic hammers every replica of a fleet with a
// spread of plan keys under -race: concurrent plans on every replica must
// not data-race, and every request must succeed.
func TestFleetConcurrentMixedTraffic(t *testing.T) {
	_, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	const workers = 6
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job := testJob()
				job.Deadline = 100 + float64((w*perWorker+i)%17) // spread plan keys
				req := planRequest{Job: job, Econ: testEcon()}
				resp := postJSON(t, listeners[(w+i)%3].URL+"/v1/plan", req)
				if resp.StatusCode != http.StatusOK {
					errs <- resp.Status
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for status := range errs {
		t.Errorf("concurrent fleet plan failed: %s", status)
	}
}

// fleetTenants is the tenant set of the escrow fleet tests: enough names
// that, for any member, some tenant's pool is owned by it.
const fleetTenants = 32

// multiTenantRegistry builds fleetTenants identical fixed-budget pools
// named t00..t31, with the testEcon economics as pool defaults.
func multiTenantRegistry(t *testing.T, budget float64) *tenant.Registry {
	t.Helper()
	limits := make(map[string]tenant.Limits, fleetTenants)
	for i := 0; i < fleetTenants; i++ {
		limits[fmt.Sprintf("t%02d", i)] = tenant.Limits{
			Budget: budget, Theta: testEcon().Theta, UnitPrice: testEcon().UnitPrice,
		}
	}
	reg, err := tenant.NewRegistry(limits)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// tenantOwnedBy returns a tenant of multiTenantRegistry whose escrow pool
// owner on s's ring view is the member owner.
func tenantOwnedBy(t *testing.T, s *Server, owner string) string {
	t.Helper()
	rs := s.ringSt.Load()
	for i := 0; i < fleetTenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		if o, ok := rs.ring.Owner(tenantKeyPrefix + name); ok && o == owner {
			return name
		}
	}
	t.Fatalf("no tenant of %d is owned by %q", fleetTenants, owner)
	return ""
}

// admitVia posts one /v1/admit for testJob/testEcon and decodes the
// decision, failing the test on any non-200.
func admitVia(t *testing.T, url, tenantName string) admitResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/admit", admitRequest{Tenant: tenantName, Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("admit via %s: status %d: %s", url, resp.StatusCode, body)
	}
	return decodeBody[admitResponse](t, resp)
}

// TestFleetOwnerDownLocalFallback kills a tenant's pool owner: the holder
// replica keeps planning every request it receives, keeps admitting from
// the escrow its lease already holds, and once that runs out rejects with
// budget_exhausted instead of failing the request or spending escrow the
// dead owner never granted.
func TestFleetOwnerDownLocalFallback(t *testing.T) {
	mt := bestPlanMachineTime(t)
	budget := 25 * mt // lease target 2.5 plans at the default 0.1 fraction
	servers, listeners := newRingFleet(t, 2, func(int) Config {
		return Config{Tenants: multiTenantRegistry(t, budget), Escrow: true, EscrowLeaseTTL: time.Hour}
	})
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	owner, holder := 0, 1
	name := tenantOwnedBy(t, servers[holder], listeners[owner].URL)

	if dec := admitVia(t, listeners[holder].URL, name); !dec.Admitted {
		t.Fatalf("admit with a live owner rejected: %+v", dec)
	}
	leased := servers[holder].escrow.lease(name).Level()
	listeners[owner].Close()

	spent := 0.0
	rejected := false
	for i := 0; i < 10 && !rejected; i++ {
		dec := admitVia(t, listeners[holder].URL, name)
		switch {
		case dec.Admitted:
			spent += dec.Plan.MachineTime
		case dec.Reason == ReasonBudgetExhausted:
			rejected = true
		default:
			t.Fatalf("admit %d with a dead owner: %+v", i, dec)
		}
	}
	if !rejected {
		t.Fatal("holder kept admitting past its lease with the owner down")
	}
	if spent > leased*(1+1e-9) {
		t.Errorf("holder spent %g with the owner down, but its lease held only %g", spent, leased)
	}

	resp := postJSON(t, listeners[holder].URL+"/v1/plan", planRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with a dead owner: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFleetTenantDriftFallsBackLocally models a rolling tenant-config
// rollout: the pool owner does not know the tenant yet and answers the
// holder's lease call 404. The holder answers its admits itself — rejected
// from its empty lease, never over-committing a pool it cannot reach — and
// the healthy owner's breaker is not charged for the drift.
func TestFleetTenantDriftFallsBackLocally(t *testing.T) {
	servers, listeners := newRingFleet(t, 2, func(int) Config {
		return Config{
			Tenants: multiTenantRegistry(t, 1e9), Escrow: true, EscrowLeaseTTL: time.Hour,
			BreakerThreshold: 1,
		}
	})
	for _, s := range servers {
		t.Cleanup(s.Close)
	}
	owner, holder := 0, 1
	name := tenantOwnedBy(t, servers[holder], listeners[owner].URL)
	// The owner's registry loses every tenant (drifted config).
	servers[owner].SetTenants(testRegistry(t, "other", 1))

	for i := 0; i < 2; i++ {
		if dec := admitVia(t, listeners[holder].URL, name); dec.Admitted || dec.Reason != ReasonBudgetExhausted {
			t.Fatalf("admit %d during drift: %+v, want budget_exhausted", i, dec)
		}
	}
	peer := servers[holder].ringSt.Load().peers[listeners[owner].URL]
	if got := peer.breaker.failures.Load(); got != 0 || !peer.breaker.allow() {
		t.Errorf("drift charged the owner's breaker: %d failures, open = %v", got, !peer.breaker.allow())
	}
}

// leaseCounter fronts h with a fault injector for the escrow lease API: it
// counts lease calls and, while healthy is false, answers them 500.
func leaseCounter(h http.Handler, hits *atomic.Int32, healthy *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == escrowPath {
			hits.Add(1)
			if !healthy.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetBreakerSkipsDeadOwner verifies per-peer circuit breaking on the
// lease path: after the threshold of consecutive failures the holder stops
// calling the failing pool owner at all, and its admits answer
// budget_exhausted from the empty lease.
func TestFleetBreakerSkipsDeadOwner(t *testing.T) {
	var hits atomic.Int32
	var healthy atomic.Bool
	dead := httptest.NewServer(leaseCounter(http.NotFoundHandler(), &hits, &healthy))
	t.Cleanup(dead.Close)

	s, ts := newTestServer(t, Config{
		Tenants: multiTenantRegistry(t, 1e9), Escrow: true, EscrowLeaseTTL: time.Hour,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	t.Cleanup(s.Close)
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{dead.URL}}); err != nil {
		t.Fatal(err)
	}
	name := tenantOwnedBy(t, s, dead.URL)
	for i := 0; i < 3; i++ {
		if dec := admitVia(t, ts.URL, name); dec.Admitted || dec.Reason != ReasonBudgetExhausted {
			t.Fatalf("admit %d against a dead owner: %+v, want budget_exhausted", i, dec)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("owner saw %d lease calls, want 1 (the breaker must stop calls after the first failure)", got)
	}
}

// TestSetRingLifecycle covers reload semantics: enabling, swapping, and
// disabling membership on a live server.
func TestSetRingLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if self, members := s.RingMembers(); self != "" || members != nil {
		t.Fatalf("fresh server has ring state %q %v", self, members)
	}

	if err := s.SetRing(ring.Membership{Peers: []string{"http://b:1"}}); err == nil {
		t.Fatal("SetRing accepted peers without self")
	}

	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{"http://b:1"}}); err != nil {
		t.Fatal(err)
	}
	self, members := s.RingMembers()
	if self != ts.URL || len(members) != 2 {
		t.Fatalf("RingMembers = %q %v", self, members)
	}

	// Plans never depend on membership: an unreachable member changes
	// nothing about how this replica answers.
	resp := postJSON(t, ts.URL+"/v1/plan", planRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with unreachable peer: status = %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := s.SetRing(ring.Membership{}); err != nil {
		t.Fatal(err)
	}
	if self, members := s.RingMembers(); self != "" || members != nil {
		t.Fatalf("disabled ring still reports %q %v", self, members)
	}
	resp = postJSON(t, ts.URL+"/v1/plan", planRequest{Job: testJob(), Econ: testEcon()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after disabling the ring: status = %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestNewPanicsOnInvalidRingConfig pins the startup contract: a Config with
// peers but no self is a misconfiguration, not a silent no-op.
func TestNewPanicsOnInvalidRingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted peers without self")
		}
	}()
	New(Config{Peers: []string{"http://b:1"}})
}

// TestRingMetricsGauges checks the membership gauges a fleet dashboard
// scrapes: node count and this replica's owned-keyspace share.
func TestRingMetricsGauges(t *testing.T) {
	_, listeners := newRingFleet(t, 3, func(int) Config { return Config{} })
	text := getMetricsText(t, listeners[0].URL)
	if got := metricValue(text, "chronosd_ring_nodes"); got != "3" {
		t.Errorf("chronosd_ring_nodes = %q, want 3", got)
	}
	frac := metricValue(text, "chronosd_ring_owned_fraction")
	if frac == "" {
		t.Fatal("chronosd_ring_owned_fraction missing")
	}
	f, err := strconv.ParseFloat(frac, 64)
	if err != nil || f <= 0.05 || f >= 0.95 {
		t.Errorf("chronosd_ring_owned_fraction = %q, want a proper share of a 3-replica ring", frac)
	}
}

// --- breaker state machine ------------------------------------------------

// TestBreakerConcurrentTripOpensOnce races many failures into one breaker
// under -race: the counter advances by CAS and the trip is a single
// closed→open CAS, so no interleaving may leave the circuit closed past the
// threshold.
func TestBreakerConcurrentTripOpensOnce(t *testing.T) {
	b := &breaker{threshold: 8, cooldown: time.Hour}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.fail()
		}()
	}
	wg.Wait()
	if b.allow() {
		t.Fatal("32 concurrent failures against threshold 8 left the circuit closed")
	}
}

// TestBreakerStragglerDoesNotExtendOpenWindow pins the fix for the old
// Add-then-Store counter: a failure landing while the circuit is already
// open (an in-flight straggler) must not push the open deadline out, or a
// trickle of stragglers postpones the half-open probe forever.
func TestBreakerStragglerDoesNotExtendOpenWindow(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 150 * time.Millisecond}
	b.fail() // trips: open for one cooldown from now
	if b.allow() {
		t.Fatal("circuit must be open immediately after tripping")
	}
	time.Sleep(90 * time.Millisecond)
	b.fail() // straggler from a forward that was in flight at trip time
	time.Sleep(90 * time.Millisecond)
	// 180 ms since the trip: the original window expired, and the straggler
	// must not have started a new one.
	if !b.allow() {
		t.Fatal("straggler failure extended the open window")
	}
	b.abort()
}

// TestBreakerHalfOpenSingleProbe: when the cooldown expires, exactly one
// caller wins the probe slot; a failed probe re-opens the circuit, a
// successful one closes it for everyone.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: 50 * time.Millisecond}
	for i := 0; i < 3; i++ {
		b.fail()
	}
	if b.allow() {
		t.Fatal("circuit should be open after threshold failures")
	}
	time.Sleep(60 * time.Millisecond)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.allow() {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d callers claimed the half-open probe, want exactly 1", got)
	}
	b.fail() // probe verdict: still dead
	if b.allow() {
		t.Fatal("failed probe must re-open the circuit")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("next cooldown expiry must admit a fresh probe")
	}
	b.success() // probe verdict: recovered
	if !b.allow() || !b.allow() {
		t.Fatal("successful probe must close the circuit for all callers")
	}
}

// TestBreakerAbortReleasesProbeSlot: a probe whose client disconnected
// proves nothing about the peer; aborting must hand the slot to the next
// caller instead of leaking it.
func TestBreakerAbortReleasesProbeSlot(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 30 * time.Millisecond}
	b.fail()
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired cooldown must admit a probe")
	}
	if b.allow() {
		t.Fatal("probe slot handed out twice")
	}
	b.abort()
	if !b.allow() {
		t.Fatal("aborted probe must release the slot to the next caller")
	}
}

// TestFleetHalfOpenProbesOncePerCooldown is the end-to-end half-open
// acceptance test on the escrow lease path: once a pool owner's circuit
// opens, each cooldown window admits exactly ONE lease call — a breaker
// that reset its counter on expiry would let a full threshold of calls
// hammer the dead owner per window.
func TestFleetHalfOpenProbesOncePerCooldown(t *testing.T) {
	const cooldown = 400 * time.Millisecond
	reg := func() *tenant.Registry { return multiTenantRegistry(t, 1e9) }

	// The owner is a real escrow replica behind a fault injector: while
	// unhealthy, /v1/escrow/lease answers 500.
	ownerSrv := New(Config{Tenants: reg(), Escrow: true, EscrowLeaseTTL: time.Hour})
	t.Cleanup(ownerSrv.Close)
	var hits atomic.Int32
	var healthy atomic.Bool
	flaky := httptest.NewServer(leaseCounter(ownerSrv.Handler(), &hits, &healthy))
	t.Cleanup(flaky.Close)

	s, ts := newTestServer(t, Config{
		Tenants: reg(), Escrow: true, EscrowLeaseTTL: time.Hour,
		BreakerThreshold: 3, BreakerCooldown: cooldown,
	})
	t.Cleanup(s.Close)
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{flaky.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := ownerSrv.SetRing(ring.Membership{Self: flaky.URL, Peers: []string{ts.URL}}); err != nil {
		t.Fatal(err)
	}
	name := tenantOwnedBy(t, s, flaky.URL)
	admit := func() error {
		resp, err := postJSONErr(ts.URL+"/v1/admit", admitRequest{Tenant: name, Job: testJob(), Econ: testEcon()})
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("admit: status %d", resp.StatusCode)
		}
		return nil
	}

	// Phase 1: threshold consecutive owner failures trip the circuit; every
	// admit still answers 200 (rejected from the empty lease).
	for i := 0; i < 3; i++ {
		if err := admit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("owner saw %d lease calls before the trip, want 3", got)
	}

	// Phase 2: the open circuit skips the owner entirely.
	for i := 0; i < 5; i++ {
		if err := admit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("open circuit called the owner anyway: %d lease calls, want 3", got)
	}

	// Phase 3: after the cooldown, a concurrent burst gets exactly one
	// half-open probe; its failure re-opens the circuit for everyone else.
	time.Sleep(cooldown + 50*time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- admit()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("half-open window admitted %d probes, want exactly 1", got-3)
	}
	if err := admit(); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatal("failed probe did not re-open the circuit")
	}

	// Phase 4: the owner recovers; the next probe succeeds, closes the
	// circuit, and funds the lease, which then carries the following admit
	// without another call.
	healthy.Store(true)
	time.Sleep(cooldown + 50*time.Millisecond)
	for i := 0; i < 2; i++ {
		if dec := admitVia(t, ts.URL, name); !dec.Admitted {
			t.Fatalf("admit %d after recovery: %+v", i, dec)
		}
	}
	if got := hits.Load(); got != 5 {
		t.Fatalf("owner saw %d lease calls after recovery, want 5", got)
	}
}

// TestForwardClientDisconnectDoesNotChargeBreaker: a lease call abandoned
// because the admitting client went away proves nothing about the owner,
// so it must leave the owner's breaker untouched (threshold 1 would
// otherwise open it) and refund the spend it was reporting.
func TestForwardClientDisconnectDoesNotChargeBreaker(t *testing.T) {
	peerGot := make(chan struct{})
	hanging := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: net/http only watches for the peer closing
		// the connection once the handler consumed the request.
		_, _ = io.Copy(io.Discard, r.Body)
		close(peerGot)
		<-r.Context().Done()
	}))
	t.Cleanup(hanging.Close)

	s, ts := newTestServer(t, Config{
		Tenants: multiTenantRegistry(t, 1e9), Escrow: true, EscrowLeaseTTL: time.Hour,
		BreakerThreshold: 1, ForwardTimeout: 10 * time.Second,
	})
	t.Cleanup(s.Close)
	if err := s.SetRing(ring.Membership{Self: ts.URL, Peers: []string{hanging.URL}}); err != nil {
		t.Fatal(err)
	}
	name := tenantOwnedBy(t, s, hanging.URL)
	lease := s.escrow.lease(name)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-peerGot
		cancel()
	}()
	if _, err := s.escrow.leaseCall(ctx, hanging.URL, escrowLeaseRequest{Tenant: name, Spent: 5, Want: 100}, lease); err == nil {
		t.Fatal("lease call abandoned mid-flight reported success")
	}
	peer := s.ringSt.Load().peers[hanging.URL]
	if peer == nil {
		t.Fatal("peer state missing for the hanging owner")
	}
	if got := peer.breaker.failures.Load(); got != 0 {
		t.Fatalf("disconnect charged the breaker with %d failures, want 0", got)
	}
	if !peer.breaker.allow() {
		t.Fatal("disconnect opened the owner's circuit")
	}
	if got := lease.TakeSpent(); got != 5 {
		t.Errorf("abandoned call left %g unreported spend on the lease, want the 5 it carried", got)
	}
}
