// Package client is the importable Go client for chronosd. It speaks every
// /v1 endpoint with typed requests and responses and decodes the unified
// error envelope into *client.Error.
//
// Given several replica URLs it spreads requests round-robin across the
// fleet and fails over to the next replica when one cannot be reached.
// Every replica answers every request itself — a plan is a pure function of
// the job, and tenant budgets stay fleet-exact through the servers' escrow
// leases — so the client needs no knowledge of fleet membership.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"chronos"
)

// Client talks to one chronosd replica or a fleet of them. Safe for
// concurrent use.
type Client struct {
	replicas []string
	http     *http.Client
	rr       atomic.Uint64
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is http.DefaultClient.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New returns a client for a single chronosd instance at baseURL (e.g.
// "http://localhost:8080"). It panics if baseURL is empty or whitespace —
// a construction-time configuration bug; use NewFleet to handle the error
// instead.
func New(baseURL string, opts ...Option) *Client {
	c, err := NewFleet([]string{baseURL}, opts...)
	if err != nil {
		panic(fmt.Sprintf("client.New(%q): %v", baseURL, err))
	}
	return c
}

// NewFleet returns a client that spreads requests round-robin across the
// given replicas, failing over to the next one on transport errors (see
// send).
func NewFleet(replicas []string, opts ...Option) (*Client, error) {
	cleaned := make([]string, 0, len(replicas))
	for _, r := range replicas {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		if r != "" {
			cleaned = append(cleaned, r)
		}
	}
	if len(cleaned) == 0 {
		return nil, errors.New("client: at least one replica URL is required")
	}
	c := &Client{replicas: cleaned, http: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Replicas returns the configured replica base URLs.
func (c *Client) Replicas() []string {
	out := make([]string, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// Error is a non-2xx chronosd answer, decoded from the unified error
// envelope. TraceID joins the failure to the server's logs and
// /debug/traces.
type Error struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable class ("bad_request", ...)
	TraceID string
	Message string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("chronosd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("chronosd: %s (HTTP %d)", e.Message, e.Status)
}

// CodeBudgetExhausted is the envelope code of a tenant-ledger rejection
// (HTTP 429); poll again after the pool refills.
const CodeBudgetExhausted = "budget_exhausted"

// --- wire types -----------------------------------------------------------

// PlanRequest asks for one job's optimal speculation plan.
type PlanRequest struct {
	Job      chronos.JobParams `json:"job"`
	Econ     chronos.Econ      `json:"econ"`
	Strategy string            `json:"strategy,omitempty"` // empty or "best" = best-of-three
	Tenant   string            `json:"tenant,omitempty"`
}

// PlanResponse is the /v1/plan answer.
type PlanResponse struct {
	Plan            chronos.Plan `json:"plan"`
	Cached          bool         `json:"cached"`
	BudgetRemaining *float64     `json:"budgetRemaining,omitempty"`
}

// BatchJob is one member of a shared-budget batch.
type BatchJob struct {
	Strategy string            `json:"strategy,omitempty"`
	Job      chronos.JobParams `json:"job"`
	RMin     float64           `json:"rmin,omitempty"`
}

// BatchRequest plans a job set under one shared machine-time budget.
type BatchRequest struct {
	Jobs   []BatchJob   `json:"jobs"`
	Budget float64      `json:"budget"`
	Econ   chronos.Econ `json:"econ,omitempty"`
	Tenant string       `json:"tenant,omitempty"`
}

// BatchPlan is one job's slice of a batch allocation.
type BatchPlan struct {
	Strategy    chronos.Strategy `json:"strategy"`
	R           int              `json:"r"`
	PoCD        float64          `json:"pocd"`
	MachineTime float64          `json:"machineTime"`
}

// BatchResponse is the /v1/plan/batch answer.
type BatchResponse struct {
	Plans            []BatchPlan `json:"plans"`
	TotalMachineTime float64     `json:"totalMachineTime"`
	Budget           float64     `json:"budget"`
	BudgetRemaining  *float64    `json:"budgetRemaining,omitempty"`
}

// AdmitRequest asks for an online admission decision.
type AdmitRequest struct {
	Tenant   string            `json:"tenant"`
	Job      chronos.JobParams `json:"job"`
	Strategy string            `json:"strategy,omitempty"`
	Econ     chronos.Econ      `json:"econ,omitempty"`
}

// AdmitResponse is the /v1/admit decision.
type AdmitResponse struct {
	Admitted        bool          `json:"admitted"`
	Tenant          string        `json:"tenant"`
	Plan            *chronos.Plan `json:"plan,omitempty"`
	Reason          string        `json:"reason,omitempty"`
	BudgetRemaining float64       `json:"budgetRemaining"`
}

// AdmitBatchJob is one arriving job in a batch admission.
type AdmitBatchJob struct {
	Job      chronos.JobParams `json:"job"`
	Strategy string            `json:"strategy,omitempty"`
}

// AdmitBatchRequest asks for admission decisions for several same-tenant
// jobs, settled against the tenant's budget in one ledger debit.
type AdmitBatchRequest struct {
	Tenant string          `json:"tenant"`
	Jobs   []AdmitBatchJob `json:"jobs"`
	Econ   chronos.Econ    `json:"econ,omitempty"`
}

// AdmitBatchResult is one job's decision, in request order.
type AdmitBatchResult struct {
	Admitted bool          `json:"admitted"`
	Plan     *chronos.Plan `json:"plan,omitempty"`
	Reason   string        `json:"reason,omitempty"`
}

// AdmitBatchResponse is the /v1/admit/batch answer.
type AdmitBatchResponse struct {
	Tenant          string             `json:"tenant"`
	Results         []AdmitBatchResult `json:"results"`
	Admitted        int                `json:"admitted"`
	BudgetRemaining float64            `json:"budgetRemaining"`
}

// SimulateRequest runs a bounded Monte-Carlo what-if.
type SimulateRequest struct {
	Config chronos.SimConfig `json:"config"`
	Jobs   []chronos.SimJob  `json:"jobs"`
}

// SimulateResponse is the /v1/simulate answer.
type SimulateResponse struct {
	Jobs            int         `json:"jobs"`
	PoCD            float64     `json:"pocd"`
	MeanMachineTime float64     `json:"meanMachineTime"`
	MeanCost        float64     `json:"meanCost"`
	Utility         *float64    `json:"utility,omitempty"`
	RHistogram      map[int]int `json:"rHistogram,omitempty"`
}

// TradeoffPoint is one r on the PoCD/cost frontier.
type TradeoffPoint struct {
	R           int      `json:"r"`
	PoCD        float64  `json:"pocd"`
	MachineTime float64  `json:"machineTime"`
	Cost        float64  `json:"cost"`
	Utility     *float64 `json:"utility"`
}

// TradeoffResponse is the /v1/tradeoff answer.
type TradeoffResponse struct {
	Strategy chronos.Strategy `json:"strategy"`
	Points   []TradeoffPoint  `json:"points"`
}

// ReplayTrace generates a synthetic Google-like job stream server-side.
type ReplayTrace struct {
	Jobs           int     `json:"jobs"`
	HorizonSeconds float64 `json:"horizonSeconds,omitempty"`
	DeadlineRatio  float64 `json:"deadlineRatio,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
}

// ReplayRequest streams a trace-driven simulation over /v1/replay. Exactly
// one of Jobs, Trace, or Benchmark supplies the job stream.
type ReplayRequest struct {
	Config        chronos.SimConfig `json:"config"`
	Jobs          []chronos.SimJob  `json:"jobs,omitempty"`
	Trace         *ReplayTrace      `json:"trace,omitempty"`
	Benchmark     json.RawMessage   `json:"benchmark,omitempty"`
	Tenant        string            `json:"tenant,omitempty"`
	WindowSeconds float64           `json:"windowSeconds,omitempty"`
}

// --- endpoint methods -----------------------------------------------------

// Plan asks for one job's plan.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	var resp PlanResponse
	if err := c.postJSON(ctx, "/v1/plan", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Admit asks for an online admission decision.
func (c *Client) Admit(ctx context.Context, req AdmitRequest) (*AdmitResponse, error) {
	var resp AdmitResponse
	if err := c.postJSON(ctx, "/v1/admit", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AdmitBatch asks for admission decisions for several same-tenant jobs,
// decided by one replica and settled in a single ledger debit.
func (c *Client) AdmitBatch(ctx context.Context, req AdmitBatchRequest) (*AdmitBatchResponse, error) {
	var resp AdmitBatchResponse
	if err := c.postJSON(ctx, "/v1/admit/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PlanBatch plans a shared-budget batch.
func (c *Client) PlanBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var resp BatchResponse
	if err := c.postJSON(ctx, "/v1/plan/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Simulate runs a what-if simulation.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	var resp SimulateResponse
	if err := c.postJSON(ctx, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Tradeoff fetches the PoCD/cost frontier of one strategy for a job. maxR
// caps the curve; zero takes the server default.
func (c *Client) Tradeoff(ctx context.Context, strategy string, job chronos.JobParams, econ chronos.Econ, maxR int) (*TradeoffResponse, error) {
	q := url.Values{}
	q.Set("strategy", strategy)
	q.Set("tasks", strconv.Itoa(job.Tasks))
	setF := func(k string, v float64) {
		if v != 0 {
			q.Set(k, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	setF("deadline", job.Deadline)
	setF("tmin", job.TMin)
	setF("beta", job.Beta)
	setF("tauEst", job.TauEst)
	setF("tauKill", job.TauKill)
	setF("phiEst", job.PhiEst)
	setF("theta", econ.Theta)
	setF("price", econ.UnitPrice)
	setF("rmin", econ.RMin)
	if maxR > 0 {
		q.Set("maxR", strconv.Itoa(maxR))
	}
	var resp TradeoffResponse
	if err := c.getJSON(ctx, "/v1/tradeoff?"+q.Encode(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Replay streams one trace-driven simulation, invoking onEvent for every
// NDJSON event in order (a nil onEvent skips the callback), and returns the
// stream's final replay_summary. An error event ends the stream as an
// error; onEvent returning an error aborts it.
func (c *Client) Replay(ctx context.Context, req ReplayRequest, onEvent func(*chronos.ReplayEvent) error) (*chronos.ReplaySummary, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := c.send(ctx, func(base string) (*http.Request, error) {
		return jsonRequest(ctx, base+"/v1/replay", raw)
	})
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, decodeError(httpResp)
	}
	var summary *chronos.ReplaySummary
	dec := json.NewDecoder(httpResp.Body)
	for {
		var ev chronos.ReplayEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if ev.Kind == chronos.EventError {
			return nil, fmt.Errorf("chronosd: replay: %s", ev.Error)
		}
		if ev.Kind == chronos.EventReplaySummary {
			summary = ev.Summary
		}
		if onEvent != nil {
			if err := onEvent(&ev); err != nil {
				return nil, err
			}
		}
	}
	if summary == nil {
		return nil, errors.New("chronosd: replay stream ended without a summary")
	}
	return summary, nil
}

// Metrics fetches one replica's Prometheus exposition text: the next
// replica in round-robin order that can be reached.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	httpResp, err := c.send(ctx, func(base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	})
	if err != nil {
		return "", err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return "", err
	}
	if httpResp.StatusCode != http.StatusOK {
		return "", &Error{Status: httpResp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}

// --- transport ------------------------------------------------------------

// send issues one request, built afresh for each attempt by build, to the
// next replica in round-robin order, failing over to the following replicas
// when one cannot be reached at all. Any HTTP answer — an error status
// included — is a live replica's and is returned as is; a dead context
// stops the walk (the caller gave up, not the replica). A transport error
// can also mean the connection dropped after the replica acted, so a
// failed-over admit may debit twice; callers that cannot tolerate that
// should talk to a single replica.
func (c *Client) send(ctx context.Context, build func(base string) (*http.Request, error)) (*http.Response, error) {
	start := c.rr.Add(1) - 1
	var err error
	for i := range uint64(len(c.replicas)) {
		var req *http.Request
		if req, err = build(c.replicas[(start+i)%uint64(len(c.replicas))]); err != nil {
			return nil, err
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, err
}

// jsonRequest builds a POST of a JSON body.
func jsonRequest(ctx context.Context, url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (c *Client) postJSON(ctx context.Context, path string, req, resp any) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(ctx, func(base string) (*http.Request, error) {
		return jsonRequest(ctx, base+path, raw)
	}, resp)
}

func (c *Client) getJSON(ctx context.Context, pathAndQuery string, resp any) error {
	return c.do(ctx, func(base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+pathAndQuery, nil)
	}, resp)
}

// do sends the request and decodes a 200 answer into resp.
func (c *Client) do(ctx context.Context, build func(base string) (*http.Request, error), resp any) error {
	httpResp, err := c.send(ctx, build)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return decodeError(httpResp)
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// decodeError turns a non-200 answer into *Error, tolerating non-envelope
// bodies (proxies, panics) by carrying the raw text.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var env struct {
		Error   string `json:"error"`
		Code    string `json:"code"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != "" {
		e.Message, e.Code, e.TraceID = env.Error, env.Code, env.TraceID
	}
	return e
}
