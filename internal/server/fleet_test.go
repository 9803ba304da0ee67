package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"chronos"
	"chronos/internal/ring"
)

// metricAtLeast parses the named counter from a metrics scrape and reports
// whether it reached min.
func metricAtLeast(text, prefix string, min int) bool {
	v, err := strconv.ParseFloat(metricValue(text, prefix), 64)
	return err == nil && v >= float64(min)
}

// testClientHeader marks the requests a fleet test sends itself; any request
// a replica receives without it came from a peer.
const testClientHeader = "X-Fleet-Test-Client"

// peerLog records the path of every request a replica received from a peer.
type peerLog struct {
	mu    sync.Mutex
	paths []string
}

func (l *peerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(testClientHeader) == "" {
			l.mu.Lock()
			l.paths = append(l.paths, r.URL.Path)
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (l *peerLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.paths...)
}

// postAsClient posts body to url as the test client and returns the status
// and raw answer.
func postAsClient(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(testClientHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestFleetServesEveryPlanLocally is the local-serving contract of an
// escrow fleet, for 2 and 3 replicas: the same /v1/plan and /v1/admit keys
// sent through every replica get exactly the solo server's answers (only
// cached and budgetRemaining may differ), no replica ever hands a plan-path
// request to a peer — the only cross-replica traffic is /v1/escrow/lease —
// and per tenant the owner's pool plus the holders' leases equal the
// budget minus what the fleet admitted.
func TestFleetServesEveryPlanLocally(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			testFleetServesEveryPlanLocally(t, n)
		})
	}
}

func testFleetServesEveryPlanLocally(t *testing.T, n int) {
	const budget = 1e9
	solo, soloTS := newTestServer(t, Config{Tenants: multiTenantRegistry(t, budget), Escrow: true})
	t.Cleanup(solo.Close)

	servers := make([]*Server, n)
	urls := make([]string, n)
	logs := make([]*peerLog, n)
	for i := range servers {
		servers[i] = New(Config{Tenants: multiTenantRegistry(t, budget), Escrow: true, EscrowLeaseTTL: time.Hour})
		t.Cleanup(servers[i].Close)
		logs[i] = &peerLog{}
		ts := httptest.NewServer(logs[i].wrap(servers[i].Handler()))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	for i, s := range servers {
		if err := s.SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	// One tenant per owner, so every replica is both an owner and a holder.
	tenants := make([]string, n)
	for i := range tenants {
		tenants[i] = tenantOwnedBy(t, servers[0], urls[i])
	}

	type call struct {
		path string
		body any
	}
	var calls []call
	for k := 0; k < 4; k++ {
		job := testJob()
		job.Tasks = 8 + 3*k
		for _, strategy := range []string{"", "clone"} {
			calls = append(calls, call{"/v1/plan", planRequest{Job: job, Econ: testEcon(), Strategy: strategy}})
			for _, name := range tenants {
				calls = append(calls,
					call{"/v1/plan", planRequest{Job: job, Econ: testEcon(), Strategy: strategy, Tenant: name}},
					call{"/v1/admit", admitRequest{Tenant: name, Job: job, Strategy: strategy}})
			}
		}
	}

	admitted := make(map[string]float64)
	for _, c := range calls {
		status, want := postAsClient(t, soloTS.URL+c.path, c.body)
		if status != http.StatusOK {
			t.Fatalf("solo %s %+v: status %d: %s", c.path, c.body, status, want)
		}
		for i, u := range urls {
			status, got := postAsClient(t, u+c.path, c.body)
			if status != http.StatusOK {
				t.Fatalf("replica %d %s %+v: status %d: %s", i, c.path, c.body, status, got)
			}
			if c.path == "/v1/plan" {
				var w, g planResponse
				mustUnmarshal(t, want, &w)
				mustUnmarshal(t, got, &g)
				if g.Plan != w.Plan {
					t.Fatalf("replica %d plan %+v, solo %+v", i, g.Plan, w.Plan)
				}
				if pr := c.body.(planRequest); pr.Tenant != "" {
					admitted[pr.Tenant] += g.Plan.MachineTime
				}
				continue
			}
			var w, g admitResponse
			mustUnmarshal(t, want, &w)
			mustUnmarshal(t, got, &g)
			if !g.Admitted || g.Admitted != w.Admitted || g.Tenant != w.Tenant ||
				g.Reason != w.Reason || *g.Plan != *w.Plan {
				t.Fatalf("replica %d admit %+v (plan %+v), solo %+v (plan %+v)", i, g, g.Plan, w, w.Plan)
			}
			admitted[g.Tenant] += g.Plan.MachineTime
		}
	}

	leaseCalls := 0
	for i, l := range logs {
		for _, p := range l.snapshot() {
			if p != escrowPath {
				t.Errorf("replica %d received %s from a peer; only %s may cross replicas", i, p, escrowPath)
			}
			leaseCalls++
		}
	}
	if leaseCalls == 0 {
		t.Error("no escrow lease call crossed replicas; the holders never leased")
	}

	for owner, name := range tenants {
		level := servers[owner].Tenants().Get(name).Remaining()
		for i, s := range servers {
			if i != owner {
				level += s.escrow.lease(name).Level()
			}
		}
		if want := budget - admitted[name]; level < want-1e-3 || level > want+1e-3 {
			t.Errorf("tenant %s: owner pool + holder leases = %.6f, want budget - admitted = %.6f",
				name, level, want)
		}
	}
}

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

// TestFleetHealthEvictionAndReadmission runs heartbeat membership under
// -race: in a 3-replica fleet one replica's listener dies, both survivors
// evict it from their ring views within the suspect window and keep
// answering plans themselves, and when it comes back on the same address
// both re-admit it.
func TestFleetHealthEvictionAndReadmission(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	httpSrvs := make([]*http.Server, n)
	urls := make([]string, n)

	// The fleet runs on real net.Listeners (not httptest) because the dead
	// replica's port must be re-bindable for the re-admission half.
	for i := 0; i < n; i++ {
		i := i
		servers[i] = New(Config{
			HeartbeatInterval: 50 * time.Millisecond,
			SuspectAfter:      3,
			ReadmitAfter:      2,
		})
		t.Cleanup(servers[i].Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		httpSrvs[i] = &http.Server{Handler: servers[i].Handler()}
		go httpSrvs[i].Serve(ln)
		t.Cleanup(func() { httpSrvs[i].Close() })
	}
	for i := 0; i < n; i++ {
		if err := servers[i].SetRing(ring.Membership{Self: urls[i], Peers: urls}); err != nil {
			t.Fatalf("SetRing(replica %d): %v", i, err)
		}
	}
	const dead = 0
	survivors := []int{1, 2}

	if err := httpSrvs[dead].Close(); err != nil {
		t.Fatal(err)
	}
	for _, i := range survivors {
		i := i
		waitFor(t, "eviction on replica "+strconv.Itoa(i), func() bool {
			_, members := servers[i].RingMembers()
			return len(members) == 2
		})
		resp := postJSON(t, urls[i]+"/v1/plan", planRequest{Job: testJob(), Econ: testEcon()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan via survivor %d: status = %d, want 200", i, resp.StatusCode)
		}
		want, err := chronos.OptimizeBest(testJob(), testEcon())
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeBody[planResponse](t, resp); got.Plan != want {
			t.Errorf("survivor %d plan %+v, want %+v", i, got.Plan, want)
		}
	}
	text := getMetricsText(t, urls[1])
	if !metricAtLeast(text, "chronosd_ring_evictions_total", 1) {
		t.Errorf("chronosd_ring_evictions_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_evictions_total"))
	}
	failLine := "chronosd_ring_heartbeat_failures_total{peer=\"" + urls[dead] + "\"}"
	if !metricAtLeast(text, failLine, 1) {
		t.Errorf("%s = %q, want >= 1", failLine, metricValue(text, failLine))
	}

	// Restart the dead replica on its old address: the survivors re-admit it.
	ln, err := net.Listen("tcp", urls[dead][len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	restarted := &http.Server{Handler: servers[dead].Handler()}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })
	for _, i := range survivors {
		i := i
		waitFor(t, "re-admission on replica "+strconv.Itoa(i), func() bool {
			_, members := servers[i].RingMembers()
			return len(members) == 3
		})
	}
	if text := getMetricsText(t, urls[1]); !metricAtLeast(text, "chronosd_ring_readmits_total", 1) {
		t.Errorf("chronosd_ring_readmits_total = %q, want >= 1",
			metricValue(text, "chronosd_ring_readmits_total"))
	}
}
