package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP chronosd_requests_total Requests served, by endpoint and status code.
# TYPE chronosd_requests_total counter
chronosd_requests_total{endpoint="/v1/plan",code="200"} 100
chronosd_request_duration_seconds_sum{endpoint="/v1/plan"} 0.5
chronosd_request_duration_seconds_count{endpoint="/v1/plan"} 100
chronosd_stage_seconds_bucket{stage="cache",le="1e-07"} 3
chronosd_stage_seconds_sum{stage="cache"} 0.001
chronosd_stage_seconds_count{stage="cache"} 100
chronosd_plan_cache_hits_total 90
chronosd_plan_cache_misses_total 10
chronosd_plan_singleflight_waiters_total 0
chronosd_ring_forwarded_total{peer="http://127.0.0.1:1"} 7
chronosd_escrow_topups_total{tenant="etl"} 2
chronosd_escrow_outstanding{tenant="etl"} 1e+11
`

const promAfter = `# a comment line
chronosd_requests_total{endpoint="/v1/plan",code="200"} 300
chronosd_request_duration_seconds_sum{endpoint="/v1/plan"} 1.5
chronosd_request_duration_seconds_count{endpoint="/v1/plan"} 300
chronosd_stage_seconds_bucket{stage="cache",le="1e-07"} 9
chronosd_stage_seconds_sum{stage="cache"} 0.003
chronosd_stage_seconds_count{stage="cache"} 300
chronosd_stage_seconds_sum{stage="solve"} 0.02
chronosd_stage_seconds_count{stage="solve"} 4
chronosd_plan_cache_hits_total 286
chronosd_plan_cache_misses_total 14
chronosd_plan_singleflight_waiters_total 1
chronosd_ring_forwarded_total{peer="http://127.0.0.1:1"} 17
chronosd_ring_forwarded_total{peer="http://127.0.0.1:2"} 5
chronosd_escrow_topups_total{tenant="etl"} 3
chronosd_escrow_topups_total{tenant="ml"} 1
chronosd_escrow_outstanding{tenant="etl"} 9.99999e+10
chronosd_escrow_lease_level{tenant="a b"} 12.5

`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromSeries(t *testing.T) {
	s := mustParse(t, promAfter)
	if got := s.get("chronosd_requests_total", "endpoint", "/v1/plan", "code", "200"); got != 300 {
		t.Errorf("labelled counter = %v, want 300", got)
	}
	if got := s.get("chronosd_plan_cache_hits_total"); got != 286 {
		t.Errorf("bare counter = %v, want 286", got)
	}
	if got := s.get("chronosd_escrow_outstanding", "tenant", "etl"); got != 9.99999e10 {
		t.Errorf("exponent gauge = %v", got)
	}
	if got := s.get("chronosd_stage_seconds_bucket", "stage", "cache", "le", "1e-07"); got != 9 {
		t.Errorf("histogram bucket = %v, want 9", got)
	}
	if got := s.get("chronosd_never_exported"); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
	if got := s.labelled("chronosd_escrow_lease_level", "tenant")["a b"]; got != 12.5 {
		t.Errorf("label value with a space: %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"chronosd_x{a=\"b\"}\n", "chronosd_x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestDeltaCountersAndHistograms(t *testing.T) {
	d := delta(mustParse(t, promBefore), mustParse(t, promAfter))
	// Histogram mean over the interval: sum and count deltas.
	if sum, n := d.stageSum("cache"), d.stageCount("cache"); n != 200 || sum < 0.00199 || sum > 0.00201 {
		t.Errorf("cache stage delta sum %v count %v, want 0.002 over 200", sum, n)
	}
	// A stage first observed between the scrapes counts from zero.
	if d.stageCount("solve") != 4 || d.stageSum("solve") != 0.02 {
		t.Errorf("new stage delta: sum %v count %v", d.stageSum("solve"), d.stageCount("solve"))
	}
	if d.stageCount("debit") != 0 {
		t.Error("a stage that never fired has a nonzero delta")
	}
	hits, misses := d.get("chronosd_plan_cache_hits_total"), d.get("chronosd_plan_cache_misses_total")
	if hits != 196 || misses != 4 {
		t.Errorf("cache deltas hits %v misses %v, want 196 and 4", hits, misses)
	}
	if got := d.get("chronosd_plan_singleflight_waiters_total"); got != 1 {
		t.Errorf("singleflight waiters delta %v", got)
	}
	// Per-peer and per-tenant counters summed across label sets, including
	// a label set that appeared between the scrapes.
	if got := d.sum("chronosd_ring_forwarded_total"); got != 15 {
		t.Errorf("ring forwarded delta %v, want 15", got)
	}
	if got := d.sum("chronosd_escrow_topups_total"); got != 2 {
		t.Errorf("escrow top-ups delta %v, want 2", got)
	}
	// sum must not match metrics that merely share a prefix.
	if got := d.sum("chronosd_request_duration_seconds"); got != 0 {
		t.Errorf("sum matched a longer metric name: %v", got)
	}
}

func TestCheckLedgerInvariants(t *testing.T) {
	tn := tenantSpec{Name: "etl", Budget: 1000}
	owner := mustParse(t, `chronosd_tenant_budget_remaining{tenant="etl"} 600
chronosd_escrow_outstanding{tenant="etl"} 300
`)
	holder := mustParse(t, `chronosd_tenant_budget_remaining{tenant="etl"} 1000
chronosd_escrow_lease_level{tenant="etl"} 250
`)
	// Spend 150: 100 debited on the owner, 50 on the holder's lease of 300
	// (not yet reported, so outstanding still reads 300).
	if _, err := checkLedger([]scrape{holder, owner}, tn, 150, 1e-6); err != nil {
		t.Fatalf("consistent ledger rejected: %v", err)
	}
	if _, err := checkLedger([]scrape{holder, owner}, tn, 140, 1e-6); err == nil {
		t.Fatal("ledger missing 10 machine-seconds of admitted spend accepted")
	}
	overdrawn := mustParse(t, `chronosd_tenant_budget_remaining{tenant="etl"} 600
chronosd_escrow_outstanding{tenant="etl"} 200
`)
	if _, err := checkLedger([]scrape{holder, overdrawn}, tn, 150, 1e-6); err == nil {
		t.Fatal("holder lease above the owner's outstanding escrow accepted")
	}
	if _, err := checkLedger([]scrape{holder, holder}, tn, 150, 1e-6); err == nil {
		t.Fatal("a tenant without an owner accepted")
	}
}
