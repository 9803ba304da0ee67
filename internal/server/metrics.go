package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/obs"
	"chronos/internal/tenant"
)

// stageBuckets covers the per-stage span range: a sharded cache lookup is
// ~100 ns, a cold three-strategy solve ~500 µs, an escrow lease round trip
// or a long replay's cumulative event writes can reach seconds. The default
// request-latency buckets bottom out at 100 µs — far too coarse here.
func stageBuckets() []float64 {
	return []float64{
		1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5,
	}
}

// serverMetrics aggregates the serving-side observability state: request
// counts and latency histograms per endpoint, plans served per strategy,
// and per-tenant admission counters. Rendering follows the Prometheus text
// exposition format.
type serverMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	plans     map[string]*metrics.Counter
	tenants   map[string]*tenantMetrics

	// Streaming-replay series: lifetime starts, currently-open streams, and
	// cumulative jobs/events pushed over /v1/replay.
	replaysStarted metrics.Counter
	replaysActive  atomic.Int64
	replayJobs     metrics.Counter
	replayEvents   metrics.Counter

	// Fleet-health series. ringHeartbeatFails counts failed liveness probes
	// per configured member; ringEvictions/ringReadmits count suspect/alive
	// membership transitions this replica applied to its effective ring.
	ringHeartbeatFails map[string]*metrics.Counter // by peer URL
	ringEvictions      metrics.Counter
	ringReadmits       metrics.Counter

	// encodeFailures counts responses whose JSON encoding failed (answered
	// as HTTP 500 and logged at warn with the trace ID).
	encodeFailures metrics.Counter

	// Singleflight series: cold-miss solves actually run (leaders) and
	// requests that piggybacked on a concurrent identical solve (waiters).
	// waiters/(leaders+waiters) is the fraction of cold traffic the miss
	// collapse absorbed.
	flightLeaders metrics.Counter
	flightWaiters metrics.Counter

	// Escrow series: per-tenant grants issued (owner side), lease top-ups
	// performed (holder side), and expired-lease reclamations (owner side).
	escrowGrants   map[string]*metrics.Counter // by tenant
	escrowTopups   map[string]*metrics.Counter // by tenant
	escrowReclaims map[string]*metrics.Counter // by tenant

	// stageSeconds histograms the per-request time spent in each hot-path
	// stage (chronosd_stage_seconds{stage=...}); each request contributes
	// its accumulated span per stage that fired.
	stageSeconds [obs.NumStages]*metrics.LatencyHistogram

	start time.Time
}

// observeStages folds one finished request's span breakdown into the
// per-stage histograms. Stages that never fired contribute nothing, so
// endpoint mix does not flatten the distributions.
func (m *serverMetrics) observeStages(snap *obs.Snapshot) {
	if snap == nil {
		return
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if snap.StageCounts[s] != 0 {
			m.stageSeconds[s].Observe(snap.StageSeconds(s))
		}
	}
}

// peerCounter returns the per-peer counter in byPeer, creating it on first
// use.
func (m *serverMetrics) peerCounter(byPeer map[string]*metrics.Counter, peer string) *metrics.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := byPeer[peer]
	if !ok {
		c = &metrics.Counter{}
		byPeer[peer] = c
	}
	return c
}

// ringHeartbeatFailure counts one failed liveness probe of member.
func (m *serverMetrics) ringHeartbeatFailure(member string) {
	m.peerCounter(m.ringHeartbeatFails, member).Inc()
}

// replayStarted marks one /v1/replay stream opening; the returned func
// closes it. Jobs and events emitted mid-stream are counted via replayEmit.
func (m *serverMetrics) replayStarted() (done func()) {
	m.replaysStarted.Inc()
	m.replaysActive.Add(1)
	return func() { m.replaysActive.Add(-1) }
}

// replayEmit counts one streamed event (and, for job completions, one
// replayed job).
func (m *serverMetrics) replayEmit(jobCompleted bool) {
	m.replayEvents.Inc()
	if jobCompleted {
		m.replayJobs.Inc()
	}
}

// escrowCount increments one per-tenant escrow counter (grants, top-ups, or
// reclaims), creating it on first use.
func (m *serverMetrics) escrowCount(byTenant map[string]*metrics.Counter, tenant string) {
	m.peerCounter(byTenant, tenant).Inc()
}

// tenantMetrics accumulates one tenant's admission-control counters.
type tenantMetrics struct {
	mu      sync.Mutex
	admits  metrics.Counter
	rejects map[string]*metrics.Counter // by structured reason
	plans   map[string]*metrics.Counter // by strategy
}

type endpointMetrics struct {
	mu      sync.Mutex
	codes   map[int]*metrics.Counter
	latency *metrics.LatencyHistogram
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		endpoints:          make(map[string]*endpointMetrics),
		plans:              make(map[string]*metrics.Counter),
		tenants:            make(map[string]*tenantMetrics),
		ringHeartbeatFails: make(map[string]*metrics.Counter),
		escrowGrants:       make(map[string]*metrics.Counter),
		escrowTopups:       make(map[string]*metrics.Counter),
		escrowReclaims:     make(map[string]*metrics.Counter),
		start:              time.Now(),
	}
	for s := range m.stageSeconds {
		m.stageSeconds[s] = metrics.NewLatencyHistogram(stageBuckets()...)
	}
	return m
}

// endpoint returns the per-endpoint accumulator, creating it on first use.
func (m *serverMetrics) endpoint(path string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[path]
	if !ok {
		em = &endpointMetrics{
			codes:   make(map[int]*metrics.Counter),
			latency: metrics.NewLatencyHistogram(),
		}
		m.endpoints[path] = em
	}
	return em
}

// observe records one finished request.
func (em *endpointMetrics) observe(code int, seconds float64) {
	em.mu.Lock()
	c, ok := em.codes[code]
	if !ok {
		c = &metrics.Counter{}
		em.codes[code] = c
	}
	em.mu.Unlock()
	c.Inc()
	em.latency.Observe(seconds)
}

// planServed counts one plan handed out for the named strategy.
func (m *serverMetrics) planServed(strategy string) {
	m.mu.Lock()
	c, ok := m.plans[strategy]
	if !ok {
		c = &metrics.Counter{}
		m.plans[strategy] = c
	}
	m.mu.Unlock()
	c.Inc()
}

// tenant returns the per-tenant accumulator, creating it on first use.
func (m *serverMetrics) tenant(name string) *tenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm, ok := m.tenants[name]
	if !ok {
		tm = &tenantMetrics{
			rejects: make(map[string]*metrics.Counter),
			plans:   make(map[string]*metrics.Counter),
		}
		m.tenants[name] = tm
	}
	return tm
}

// tenantAdmit counts one ledger-debited plan for the tenant.
func (m *serverMetrics) tenantAdmit(name, strategy string) {
	tm := m.tenant(name)
	tm.admits.Inc()
	tm.mu.Lock()
	c, ok := tm.plans[strategy]
	if !ok {
		c = &metrics.Counter{}
		tm.plans[strategy] = c
	}
	tm.mu.Unlock()
	c.Inc()
}

// tenantReject counts one admission rejection with its structured reason.
func (m *serverMetrics) tenantReject(name, reason string) {
	tm := m.tenant(name)
	tm.mu.Lock()
	c, ok := tm.rejects[reason]
	if !ok {
		c = &metrics.Counter{}
		tm.rejects[reason] = c
	}
	tm.mu.Unlock()
	c.Inc()
}

// writeTenantLabeled renders one per-tenant counter family whose second
// label (reason, strategy, ...) keys the map sel selects, snapshotting each
// tenant's counts under its lock before printing.
func (m *serverMetrics) writeTenantLabeled(w io.Writer, metric, label string, tenantNames []string, sel func(*tenantMetrics) map[string]*metrics.Counter) {
	for _, name := range tenantNames {
		tm := m.tenant(name)
		tm.mu.Lock()
		byLabel := sel(tm)
		keys := make([]string, 0, len(byLabel))
		for k := range byLabel {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		counts := make(map[string]uint64, len(keys))
		for _, k := range keys {
			counts[k] = byLabel[k].Value()
		}
		tm.mu.Unlock()
		for _, k := range keys {
			fmt.Fprintf(w, "%s{tenant=%q,%s=%q} %d\n", metric, name, label, k, counts[k])
		}
	}
}

// writePeerLabeled renders one per-peer counter family, snapshotting the map
// under the metrics lock before printing.
func (m *serverMetrics) writePeerLabeled(w io.Writer, metric string, byPeer map[string]*metrics.Counter) {
	m.writePeerLabeledAs(w, metric, "peer", byPeer)
}

// writePeerLabeledAs is writePeerLabeled with the label name chosen by the
// caller (the escrow families key the same map shape by tenant).
func (m *serverMetrics) writePeerLabeledAs(w io.Writer, metric, label string, byKey map[string]*metrics.Counter) {
	m.mu.Lock()
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := make(map[string]uint64, len(keys))
	for _, k := range keys {
		counts[k] = byKey[k].Value()
	}
	m.mu.Unlock()
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", metric, label, k, counts[k])
	}
}

// writeTenantGauges renders one per-tenant gauge family from a snapshot map.
func writeTenantGauges(w io.Writer, metric string, byTenant map[string]float64) {
	names := make([]string, 0, len(byTenant))
	for n := range byTenant {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s{tenant=%q} %g\n", metric, n, byTenant[n])
	}
}

// writePrometheus renders every metric in the text exposition format. The
// cache, tenant registry, ring view, and escrow manager are passed in so
// their gauges reflect live state (reg, rs, and esc may be nil when
// unconfigured).
func (m *serverMetrics) writePrometheus(w io.Writer, cache *planCache, reg *tenant.Registry, rs *ringState, esc *escrowManager) {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.endpoints))
	for p := range m.endpoints {
		endpoints = append(endpoints, p)
	}
	sort.Strings(endpoints)
	strategies := make([]string, 0, len(m.plans))
	for s := range m.plans {
		strategies = append(strategies, s)
	}
	sort.Strings(strategies)
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP chronosd_requests_total Requests served, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE chronosd_requests_total counter")
	for _, path := range endpoints {
		em := m.endpoint(path)
		em.mu.Lock()
		codes := make([]int, 0, len(em.codes))
		for c := range em.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		counts := make(map[int]uint64, len(codes))
		for _, c := range codes {
			counts[c] = em.codes[c].Value()
		}
		em.mu.Unlock()
		for _, c := range codes {
			fmt.Fprintf(w, "chronosd_requests_total{endpoint=%q,code=%q} %d\n",
				path, strconv.Itoa(c), counts[c])
		}
	}

	fmt.Fprintln(w, "# HELP chronosd_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE chronosd_request_duration_seconds histogram")
	for _, path := range endpoints {
		snap := m.endpoint(path).latency.Snapshot()
		for i, bound := range snap.Bounds {
			fmt.Fprintf(w, "chronosd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				path, strconv.FormatFloat(bound, 'g', -1, 64), snap.Cumulative[i])
		}
		fmt.Fprintf(w, "chronosd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n",
			path, snap.Count)
		fmt.Fprintf(w, "chronosd_request_duration_seconds_sum{endpoint=%q} %g\n", path, snap.Sum)
		fmt.Fprintf(w, "chronosd_request_duration_seconds_count{endpoint=%q} %d\n", path, snap.Count)
	}

	fmt.Fprintln(w, "# HELP chronosd_stage_seconds Per-request time in each hot-path stage.")
	fmt.Fprintln(w, "# TYPE chronosd_stage_seconds histogram")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		snap := m.stageSeconds[s].Snapshot()
		stage := s.String()
		for i, bound := range snap.Bounds {
			fmt.Fprintf(w, "chronosd_stage_seconds_bucket{stage=%q,le=%q} %d\n",
				stage, strconv.FormatFloat(bound, 'g', -1, 64), snap.Cumulative[i])
		}
		fmt.Fprintf(w, "chronosd_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, snap.Count)
		fmt.Fprintf(w, "chronosd_stage_seconds_sum{stage=%q} %g\n", stage, snap.Sum)
		fmt.Fprintf(w, "chronosd_stage_seconds_count{stage=%q} %d\n", stage, snap.Count)
	}

	fmt.Fprintln(w, "# HELP chronosd_plans_total Plans served, by winning strategy.")
	fmt.Fprintln(w, "# TYPE chronosd_plans_total counter")
	for _, s := range strategies {
		m.mu.Lock()
		v := m.plans[s].Value()
		m.mu.Unlock()
		fmt.Fprintf(w, "chronosd_plans_total{strategy=%q} %d\n", s, v)
	}

	hits, misses := cache.stats()
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_hits_total Plan cache hits.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_hits_total counter")
	fmt.Fprintf(w, "chronosd_plan_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_misses_total Plan cache misses.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_misses_total counter")
	fmt.Fprintf(w, "chronosd_plan_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP chronosd_plan_cache_entries Plans currently cached.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_cache_entries gauge")
	fmt.Fprintf(w, "chronosd_plan_cache_entries %d\n", cache.len())
	fmt.Fprintln(w, "# HELP chronosd_plan_singleflight_leaders_total Cold-miss solves run as singleflight leaders.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_singleflight_leaders_total counter")
	fmt.Fprintf(w, "chronosd_plan_singleflight_leaders_total %d\n", m.flightLeaders.Value())
	fmt.Fprintln(w, "# HELP chronosd_plan_singleflight_waiters_total Cold misses that piggybacked on a concurrent identical solve.")
	fmt.Fprintln(w, "# TYPE chronosd_plan_singleflight_waiters_total counter")
	fmt.Fprintf(w, "chronosd_plan_singleflight_waiters_total %d\n", m.flightWaiters.Value())

	m.mu.Lock()
	tenantNames := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		tenantNames = append(tenantNames, name)
	}
	m.mu.Unlock()
	sort.Strings(tenantNames)

	fmt.Fprintln(w, "# HELP chronosd_tenant_admits_total Ledger-debited plans, by tenant.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_admits_total counter")
	for _, name := range tenantNames {
		fmt.Fprintf(w, "chronosd_tenant_admits_total{tenant=%q} %d\n",
			name, m.tenant(name).admits.Value())
	}

	fmt.Fprintln(w, "# HELP chronosd_tenant_rejects_total Admission rejections, by tenant and reason.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_rejects_total counter")
	m.writeTenantLabeled(w, "chronosd_tenant_rejects_total", "reason", tenantNames,
		func(tm *tenantMetrics) map[string]*metrics.Counter { return tm.rejects })

	fmt.Fprintln(w, "# HELP chronosd_tenant_plans_total Admitted plans, by tenant and strategy.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_plans_total counter")
	m.writeTenantLabeled(w, "chronosd_tenant_plans_total", "strategy", tenantNames,
		func(tm *tenantMetrics) map[string]*metrics.Counter { return tm.plans })

	fmt.Fprintln(w, "# HELP chronosd_tenant_budget_remaining Machine-seconds left in each pool.")
	fmt.Fprintln(w, "# TYPE chronosd_tenant_budget_remaining gauge")
	for _, p := range reg.Pools() {
		fmt.Fprintf(w, "chronosd_tenant_budget_remaining{tenant=%q} %g\n",
			p.Name(), p.Remaining())
	}

	if esc != nil {
		outstanding, leaseLevels := esc.escrowStats(reg)
		fmt.Fprintln(w, "# HELP chronosd_escrow_outstanding Machine-seconds escrowed in outstanding leases, by owned tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_outstanding gauge")
		writeTenantGauges(w, "chronosd_escrow_outstanding", outstanding)
		fmt.Fprintln(w, "# HELP chronosd_escrow_lease_level Machine-seconds available in this replica's local leases, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_lease_level gauge")
		writeTenantGauges(w, "chronosd_escrow_lease_level", leaseLevels)
		fmt.Fprintln(w, "# HELP chronosd_escrow_grants_total Escrow grants issued by this replica as pool owner, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_grants_total counter")
		m.writePeerLabeledAs(w, "chronosd_escrow_grants_total", "tenant", m.escrowGrants)
		fmt.Fprintln(w, "# HELP chronosd_escrow_topups_total Lease top-ups performed by this replica as holder, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_topups_total counter")
		m.writePeerLabeledAs(w, "chronosd_escrow_topups_total", "tenant", m.escrowTopups)
		fmt.Fprintln(w, "# HELP chronosd_escrow_reclaims_total Expired leases reclaimed by this replica as pool owner, by tenant.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_reclaims_total counter")
		m.writePeerLabeledAs(w, "chronosd_escrow_reclaims_total", "tenant", m.escrowReclaims)
		walFails, _ := esc.led.WALFailures()
		fmt.Fprintln(w, "# HELP chronosd_escrow_wal_append_failures_total Ledger records the WAL failed to persist; nonzero means recovery after a restart would resurrect spent budget.")
		fmt.Fprintln(w, "# TYPE chronosd_escrow_wal_append_failures_total counter")
		fmt.Fprintf(w, "chronosd_escrow_wal_append_failures_total %d\n", walFails)
	}

	fmt.Fprintln(w, "# HELP chronosd_replays_total Streaming replays started over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replays_total counter")
	fmt.Fprintf(w, "chronosd_replays_total %d\n", m.replaysStarted.Value())
	fmt.Fprintln(w, "# HELP chronosd_replays_active Replay streams currently open.")
	fmt.Fprintln(w, "# TYPE chronosd_replays_active gauge")
	fmt.Fprintf(w, "chronosd_replays_active %d\n", m.replaysActive.Load())
	fmt.Fprintln(w, "# HELP chronosd_replay_jobs_total Jobs replayed to completion over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replay_jobs_total counter")
	fmt.Fprintf(w, "chronosd_replay_jobs_total %d\n", m.replayJobs.Value())
	fmt.Fprintln(w, "# HELP chronosd_replay_events_total NDJSON events emitted over /v1/replay.")
	fmt.Fprintln(w, "# TYPE chronosd_replay_events_total counter")
	fmt.Fprintf(w, "chronosd_replay_events_total %d\n", m.replayEvents.Value())

	fmt.Fprintln(w, "# HELP chronosd_ring_nodes Replicas in the consistent-hash ring (0 = solo replica).")
	fmt.Fprintln(w, "# TYPE chronosd_ring_nodes gauge")
	nodes := 0
	if rs != nil {
		nodes = rs.ring.Len()
	}
	fmt.Fprintf(w, "chronosd_ring_nodes %d\n", nodes)
	if rs != nil {
		fmt.Fprintln(w, "# HELP chronosd_ring_owned_fraction Fraction of the tenant keyspace this replica owns.")
		fmt.Fprintln(w, "# TYPE chronosd_ring_owned_fraction gauge")
		fmt.Fprintf(w, "chronosd_ring_owned_fraction %g\n", rs.ring.OwnedFraction(rs.self))
	}
	fmt.Fprintln(w, "# HELP chronosd_ring_heartbeat_failures_total Failed liveness probes, by configured member.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_heartbeat_failures_total counter")
	m.writePeerLabeled(w, "chronosd_ring_heartbeat_failures_total", m.ringHeartbeatFails)
	fmt.Fprintln(w, "# HELP chronosd_ring_evictions_total Members evicted from this replica's effective ring by the health monitor.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_evictions_total counter")
	fmt.Fprintf(w, "chronosd_ring_evictions_total %d\n", m.ringEvictions.Value())
	fmt.Fprintln(w, "# HELP chronosd_ring_readmits_total Suspected members re-admitted after recovery.")
	fmt.Fprintln(w, "# TYPE chronosd_ring_readmits_total counter")
	fmt.Fprintf(w, "chronosd_ring_readmits_total %d\n", m.ringReadmits.Value())

	fmt.Fprintln(w, "# HELP chronosd_response_encode_failures_total Responses whose JSON encoding failed (answered as HTTP 500).")
	fmt.Fprintln(w, "# TYPE chronosd_response_encode_failures_total counter")
	fmt.Fprintf(w, "chronosd_response_encode_failures_total %d\n", m.encodeFailures.Value())

	fmt.Fprintln(w, "# HELP chronosd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE chronosd_uptime_seconds gauge")
	fmt.Fprintf(w, "chronosd_uptime_seconds %g\n", time.Since(m.start).Seconds())
}
