package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"chronos"
	"chronos/internal/hotjson"
	"chronos/internal/plankey"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

// The traced run attributes an op's time to layers from outside the
// program: it keeps the op's loopback round trip as the root span, then
// calls each layer's public function on that op's exact input and records
// the call as a child span, nested the way chronosd nests the calls
// (request -> handler -> decode / key / solve / encode / debit). Children are
// re-executions timed back to back, not sub-intervals of their parent, so a
// parent's self time is its duration minus its children's durations.

// perLayer lists every per-layer metric and its unit. A traced run prints
// all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.send_lag_p99_ms", "ms"},
	{"loadgen.behind_max_ms", "ms"},
	{"loadgen.cpu_us_per_op", "us"},
	{"openloop.latency_p50_ms", "ms"},
	{"openloop.latency_p99_ms", "ms"},
	{"closedloop.throughput_ops_per_s", "1/s"},
	{"closedloop.server_cpu_us_per_op", "us"},
	{"http.overhead_us", "us"},
	{"server.request_us", "us"},
	{"server.handler_us", "us"},
	{"server.route_self_us", "us"},
	{"server.allocs_per_op", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.singleflight_waiters_per_op", "count"},
	{"server.stage.quantize_us_per_op", "us"},
	{"server.stage.cache_us_per_op", "us"},
	{"server.stage.solve_us_per_op", "us"},
	{"server.stage.flight_wait_us_per_op", "us"},
	{"server.stage.debit_us_per_op", "us"},
	{"server.stage.escrow_us_per_op", "us"},
	{"server.stage.forward_us_per_op", "us"},
	{"server.stage.replay_emit_us_per_op", "us"},
	{"server.stage.solve_per_op", "count"},
	{"hotjson.decode_ns", "ns"},
	{"hotjson.encode_ns", "ns"},
	{"plankey.key_ns", "ns"},
	{"optimize.solve_us_p50", "us"},
	{"optimize.solve_us_p99", "us"},
	{"optimize.allocs_per_solve", "count"},
	{"ring.forwarded_per_op", "count"},
	{"ring.local_fallbacks", "count"},
	{"ring.peer_errors", "count"},
	{"tenant.wal_debit_us", "us"},
	{"tenant.escrow_topups_per_kop", "count"},
	{"tenant.wal_append_failures", "count"},
	{"replay.engine_jobs_per_s", "1/s"},
	{"replay.allocs_per_job", "count"},
	{"replay.bytes_per_job", "B"},
	{"replay.events_per_job", "count"},
	{"replay.emit_self_us_per_job", "us"},
	{"trace.overhead_pct", "%"},
}

var stages = []string{"quantize", "cache", "solve", "flight_wait", "debit", "escrow", "forward", "replay_emit"}

// layer records a per-layer metric, checking it is one of perLayer.
func (b *bench) layer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			b.metric(name, v, m.unit)
			return
		}
	}
	panic("unknown per-layer metric " + name)
}

func (b *bench) zeroLayers() {
	for _, m := range perLayer {
		b.metric(m.name, 0, m.unit)
	}
}

// span is one recorded call. Trace is the op's ID; a root has Parent 0.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(trace int64, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
	return id
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		enc.Encode(&t.spans[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timing is one layer loop: per-call durations (ns), the span ID of each
// call, and the heap allocations the whole loop made. Per-call figures are
// reported as medians: a call of a few hundred nanoseconds that a GC cycle
// or a neighbour's burst interrupts would otherwise dominate a mean.
type timing struct {
	durs    []float64
	ids     []int
	mallocs uint64
}

// timed calls f once per op, k indexing ops, recording each call as a span
// under parents[k].
func (t *tracer) timed(name string, ops []int64, parents []int, f func(k int)) timing {
	tm := timing{durs: make([]float64, 0, len(ops)), ids: make([]int, 0, len(ops))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := range ops {
		start := time.Now()
		f(k)
		end := time.Now()
		tm.ids = append(tm.ids, t.add(ops[k], parents[k], name, start, end))
		tm.durs = append(tm.durs, float64(end.Sub(start).Nanoseconds()))
	}
	runtime.ReadMemStats(&m1)
	tm.mallocs = m1.Mallocs - m0.Mallocs
	return tm
}

// tracedOps caps how many traced ops get in-process child spans.
const tracedOps = 5000

// runTraced is the per-layer run of a serving workload: a closed loop
// without and one with root spans (their throughput difference is the
// tracing overhead), chronosd's counters scraped around the traced loop,
// an open loop for the generator's own validity figures, then the
// in-process layer calls on the traced ops' inputs.
func (r *servingRun) runTraced(next *atomic.Int64) {
	r.zeroLayers()
	half := r.closedDur() / 2
	self0 := selfCPU()
	plain := closedLoop(r.conns, r.w, next, r.closedLimit(), half, false, r.cpu)
	r.count(plain.ok, plain.failed, plain.firstErr)
	r.layer("loadgen.cpu_us_per_op", (selfCPU()-self0)*1e6/float64(plain.ok+plain.failed))
	r.layer("closedloop.throughput_ops_per_s", plain.sampledThroughput())
	r.layer("closedloop.server_cpu_us_per_op", plain.cpuPerOp()*1e6)
	before, _, err := fetchAll(r.bases())
	if err != nil {
		r.abort(err)
	}
	traced := closedLoop(r.conns, r.w, next, r.closedLimit(), half, true, r.cpu)
	r.count(traced.ok, traced.failed, traced.firstErr)
	after, _, err := fetchAll(r.bases())
	if err != nil {
		r.abort(err)
	}
	open := openLoop(r.conns, r.w, r.openBase(next), r.spec.openRate, r.openDur(), r.openWindow())
	r.count(open.ok, open.failed, open.firstErr)
	r.checkFleet()
	for _, c := range r.conns {
		c.Close()
	}
	stopAll()

	r.layer("trace.overhead_pct", 100*(plain.sampledThroughput()-traced.sampledThroughput())/plain.sampledThroughput())
	r.layer("loadgen.send_lag_p99_ms", open.lagP99()/1e3)
	if p50, p99, err := open.scored(); err == nil {
		r.layer("openloop.latency_p50_ms", p50/1e3)
		r.layer("openloop.latency_p99_ms", p99/1e3)
	} else {
		r.info("openloop.* not scored (left at 0): %v", err)
	}
	r.layer("loadgen.behind_max_ms", open.behindMax()/1e3)

	d := delta(before, after)
	n := float64(traced.ok + traced.failed)
	reqSum := d.get("chronosd_request_duration_seconds_sum", "endpoint", r.spec.path)
	reqCount := d.get("chronosd_request_duration_seconds_count", "endpoint", r.spec.path)
	serverUs := 0.0
	if reqCount > 0 {
		serverUs = reqSum / reqCount * 1e6
	}
	r.layer("server.request_us", serverUs)
	r.layer("http.overhead_us", mean(traced.rtt)-serverUs)
	hits, misses := d.get("chronosd_plan_cache_hits_total"), d.get("chronosd_plan_cache_misses_total")
	if hits+misses > 0 {
		r.layer("server.cache_hit_ratio", hits/(hits+misses))
	}
	r.layer("server.singleflight_waiters_per_op", d.get("chronosd_plan_singleflight_waiters_total")/n)
	for _, s := range stages {
		r.layer("server.stage."+s+"_us_per_op", d.stageSum(s)*1e6/n)
	}
	r.layer("server.stage.solve_per_op", d.stageCount("solve")/n)
	r.layer("ring.forwarded_per_op", d.sum("chronosd_ring_forwarded_total")/n)
	r.layer("ring.local_fallbacks", d.get("chronosd_ring_local_fallbacks_total"))
	r.layer("ring.peer_errors", d.sum("chronosd_ring_peer_errors_total"))
	r.layer("tenant.escrow_topups_per_kop", d.sum("chronosd_escrow_topups_total")*1000/n)
	r.layer("tenant.wal_append_failures", after.get("chronosd_escrow_wal_append_failures_total"))

	tr := &tracer{t0: traced.spans[0].Start}
	roots := traced.spans[:min(len(traced.spans), tracedOps)]
	if err := r.inProcess(tr, roots); err != nil {
		r.fail(err)
	}
	path, err := tr.write(r.traceOut, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err != nil {
		r.abort(err)
	}
	r.info("traced: %d ops at %.0f/s (untraced %.0f/s), %d spans in %s", len(traced.spans),
		traced.throughput(), plain.throughput(), len(tr.spans), path)
}

// sink is a reusable in-memory http.ResponseWriter.
type sink struct {
	h    http.Header
	code int
	buf  []byte
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.buf = append(s.buf, b...); return len(b), nil }
func (s *sink) reset()                      { clear(s.h); s.code = http.StatusOK; s.buf = s.buf[:0] }

type nopBody struct{ bytes.Reader }

func (*nopBody) Close() error { return nil }

// inProcess times the layer calls for each root op and records their spans.
func (r *servingRun) inProcess(tr *tracer, roots []rootSpan) error {
	admit := r.admit != nil
	cfg := server.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))}
	dir := filepath.Join(r.work, "inproc")
	if admit {
		reg, err := admitRegistry()
		if err != nil {
			return err
		}
		store, err := tenant.OpenStore(filepath.Join(dir, "handler"))
		if err != nil {
			return err
		}
		defer store.Close()
		cfg.Tenants, cfg.Escrow, cfg.Store = reg, true, store
	}
	srv := server.New(cfg)
	defer srv.Close()
	h := srv.Handler()
	req, err := http.NewRequest(http.MethodPost, r.spec.path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	body := &nopBody{}
	w := &sink{h: http.Header{}}
	serve := func(in *planInput) error {
		body.Reset(in.Body)
		req.Body, req.ContentLength = body, int64(len(in.Body))
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return fmt.Errorf("in-process %s: HTTP %d: %.200s", r.spec.path, w.code, w.buf)
		}
		return nil
	}
	if r.plan.seq != nil {
		// Same cache state as the served run: every distinct job once.
		for k := range r.inputs {
			if err := serve(&r.inputs[k]); err != nil {
				return err
			}
		}
	}

	ops := make([]int64, len(roots))
	rootIDs := make([]int, len(roots))
	for k, s := range roots {
		ops[k] = s.Op
		rootIDs[k] = tr.add(s.Op, 0, "request", s.Start, s.End)
	}
	in := func(k int) *planInput { return &r.inputs[r.plan.idx(ops[k])] }
	tr.spans = append(make([]span, 0, len(roots)*8), tr.spans...)

	var serveErr error
	handler := tr.timed("handler", ops, rootIDs, func(k int) {
		if err := serve(in(k)); err != nil && serveErr == nil {
			serveErr = err
		}
	})
	if serveErr != nil {
		return serveErr
	}
	handlerIDs := handler.ids

	var decErr error
	decode := tr.timed("decode", ops, handlerIDs, func(k int) {
		var err error
		if admit {
			var v hotjson.AdmitRequest
			err = hotjson.DecodeAdmitRequest(in(k).Body, &v, nil)
		} else {
			var v hotjson.PlanRequest
			err = hotjson.DecodePlanRequest(in(k).Body, &v, nil)
		}
		if err != nil && decErr == nil {
			decErr = err
		}
	})
	var keyBuf []byte
	key := tr.timed("key", ops, handlerIDs, func(k int) {
		keyBuf = plankey.AppendKey(keyBuf[:0], "", in(k).Job, in(k).Econ)
	})

	// solve: only the ops chronosd actually solved (answered cached:false).
	// Admits carry no cached flag; warm-up solved every admit key and the
	// 2000 keys fit the default cache, so no timed admit solves.
	var solvedOps []int64
	var solvedParents []int
	if !admit {
		for k, op := range ops {
			if !r.plan.cached[op] {
				solvedOps = append(solvedOps, op)
				solvedParents = append(solvedParents, handlerIDs[k])
			}
		}
	}
	var solveErr error
	solve := tr.timed("solve", solvedOps, solvedParents, func(k int) {
		p := &r.inputs[r.plan.idx(solvedOps[k])]
		if _, err := chronos.OptimizeBest(p.Job, p.Econ); err != nil && solveErr == nil {
			solveErr = err
		}
	})

	var out []byte
	encode := tr.timed("encode", ops, handlerIDs, func(k int) {
		p := in(k)
		if admit {
			plan := p.Plan
			out, _ = hotjson.AppendAdmitResponse(out[:0], &hotjson.AdmitResponse{
				Admitted: true, Tenant: p.Tenant, Plan: &plan, BudgetRemaining: 1e12})
		} else {
			out, _ = hotjson.AppendPlanResponse(out[:0], &hotjson.PlanResponse{Plan: p.Plan, Cached: r.plan.cached[ops[k]]})
		}
	})

	var debit timing
	if admit {
		store, err := tenant.OpenStore(filepath.Join(dir, "ledger"))
		if err != nil {
			return err
		}
		defer store.Close()
		reg, err := admitRegistry()
		if err != nil {
			return err
		}
		led := tenant.NewEscrowLedger(reg, store, 0)
		var debitErr error
		debit = tr.timed("debit", ops, handlerIDs, func(k int) {
			if ok, _ := led.DebitLocal(in(k).Tenant, in(k).Plan.MachineTime); !ok && debitErr == nil {
				debitErr = fmt.Errorf("in-process DebitLocal refused %s", in(k).Tenant)
			}
		})
		if debitErr != nil {
			return debitErr
		}
	}
	if decErr != nil {
		return decErr
	}
	if solveErr != nil {
		return solveErr
	}

	// Self time of the handler: its duration minus its children's.
	selfNs := make([]float64, len(ops))
	for k := range ops {
		selfNs[k] = handler.durs[k] - decode.durs[k] - key.durs[k] - encode.durs[k]
		if admit {
			selfNs[k] -= debit.durs[k]
		}
	}
	for k, op := range solvedOps {
		// solvedOps is a subsequence of ops, which are in op order.
		j := sort.Search(len(ops), func(i int) bool { return ops[i] >= op })
		selfNs[j] -= solve.durs[k]
	}
	r.layer("server.handler_us", median(handler.durs)/1e3)
	r.layer("server.route_self_us", median(selfNs)/1e3)
	r.layer("server.allocs_per_op", float64(handler.mallocs)/float64(len(ops)))
	r.layer("hotjson.decode_ns", median(decode.durs))
	r.layer("hotjson.encode_ns", median(encode.durs))
	r.layer("plankey.key_ns", median(key.durs))
	if len(solve.durs) > 0 {
		sd := summarize(solve.durs)
		r.layer("optimize.solve_us_p50", sd.P50/1e3)
		r.layer("optimize.solve_us_p99", sd.P99/1e3)
		r.layer("optimize.allocs_per_solve", float64(solve.mallocs)/float64(len(solve.durs)))
	}
	if admit {
		r.layer("tenant.wal_debit_us", median(debit.durs)/1e3)
	}
	return nil
}

// runTraced is the per-layer run of replay-stream: untraced streams, then
// traced streams with chronosd's counters scraped around them, each
// traced stream followed by an in-process chronos.Replay of the same trace
// as its engine child span.
func (r *replayRun) runTraced() {
	r.zeroLayers()
	quarter := r.seconds / 4
	self0, cpu0 := selfCPU(), r.cpu()
	plain, _ := r.streams(quarter)
	jobs := float64(replayJobs)
	r.layer("loadgen.cpu_us_per_op", (selfCPU()-self0)*1e6/(jobs*float64(len(plain))))
	r.layer("closedloop.server_cpu_us_per_op", (r.cpu()-cpu0)*1e6/(jobs*float64(len(plain))))
	before, err := fetchMetrics(r.daemons[0].base)
	if err != nil {
		r.abort(err)
	}
	tr := &tracer{t0: time.Now()}
	var walls, engines, emitSelf []float64
	for end := time.Now().Add(quarter); len(walls) == 0 || time.Now().Before(end); {
		start := time.Now()
		t, wall, err := r.stream()
		r.attempted += replayJobs
		if err != nil {
			r.failed += replayJobs
			r.failures = append(r.failures, err.Error())
			break
		}
		root := tr.add(int64(len(walls)), 0, "request", start, start.Add(wall))
		walls = append(walls, float64(wall.Nanoseconds()))
		engineStart := time.Now()
		if err := t.reference(); err != nil {
			r.fail(err)
			break
		}
		tr.add(int64(len(walls)-1), root, "engine", engineStart, engineStart.Add(t.engine.wall))
		engines = append(engines, float64(t.engine.wall.Nanoseconds()))
		emitSelf = append(emitSelf, float64((wall - t.engine.wall).Nanoseconds()))
	}
	after, err := fetchMetrics(r.daemons[0].base)
	if err != nil {
		r.abort(err)
	}
	stopAll()
	if len(walls) == 0 || len(engines) == 0 {
		return
	}
	d := delta(before, after)
	reqSum := d.get("chronosd_request_duration_seconds_sum", "endpoint", "/v1/replay")
	reqCount := d.get("chronosd_request_duration_seconds_count", "endpoint", "/v1/replay")
	if reqCount > 0 {
		r.layer("server.request_us", reqSum/reqCount*1e6)
	}
	n := jobs * float64(len(walls))
	r.layer("server.stage.replay_emit_us_per_op", d.stageSum("replay_emit")*1e6/n)
	if reqCount > 0 {
		r.layer("http.overhead_us", mean(walls)/1e3-reqSum/reqCount*1e6)
	}
	engine := median(engines)
	r.layer("replay.engine_jobs_per_s", jobs/(engine/1e9))
	var mallocs, allocBytes uint64
	var events int
	for _, t := range r.traces {
		mallocs, allocBytes, events = mallocs+t.engine.mallocs, allocBytes+t.engine.bytes, events+t.engine.events
	}
	all := jobs * float64(len(r.traces))
	r.layer("replay.allocs_per_job", float64(mallocs)/all)
	r.layer("replay.bytes_per_job", float64(allocBytes)/all)
	r.layer("replay.events_per_job", float64(events)/all)
	r.layer("replay.emit_self_us_per_job", median(emitSelf)/1e3/jobs)
	var plainTotal time.Duration
	for _, w := range plain {
		plainTotal += w
	}
	plainRate := jobs * float64(len(plain)) / plainTotal.Seconds()
	r.layer("closedloop.throughput_ops_per_s", plainRate)
	tracedRate := n / (sumOf(walls) / 1e9)
	r.layer("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate)
	path, err := tr.write(r.traceOut, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err != nil {
		r.abort(err)
	}
	r.info("traced: %d streams, engine %.0f jobs/s in-process, %d spans in %s", len(walls), jobs/(engine/1e9), len(tr.spans), path)
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
