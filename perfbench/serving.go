package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// servingSpec shapes one request/response workload.
type servingSpec struct {
	path     string  // endpoint
	replicas int     // chronosd processes (one connection each when > 1)
	openRate float64 // open-loop requests per second, all connections
}

// planOps serves /v1/plan: op i asks for inputs[seq[i]] (or inputs[i] when
// seq is nil, the unique stream) and must get back exactly that job's
// in-process plan; only the cached flag may differ.
type planOps struct {
	inputs []planInput
	seq    []int32
	base   int64 // the unique stream's op index of inputs[0]
	reqs   [][]byte
	// cached[i] records whether op i's answer came from the cache; each op
	// index is written by exactly one connection goroutine.
	cached []bool
}

func (p *planOps) idx(i int64) int {
	if p.seq != nil {
		return int(p.seq[i])
	}
	return int(i - p.base)
}

func (p *planOps) request(i int64) []byte { return p.reqs[p.idx(i)] }

var (
	planPrefix   = []byte(`{"plan":`)
	cachedTrue   = []byte(`,"cached":true}`)
	cachedFalse  = []byte(`,"cached":false}`)
	admitPrefix  = []byte(`{"admitted":true,"tenant":`)
	admitPlanKey = []byte(`,"plan":`)
	admitRemKey  = []byte(`,"budgetRemaining":`)
)

func (p *planOps) check(_ int, i int64, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("op %d: HTTP %d: %.200s", i, status, body)
	}
	in := &p.inputs[p.idx(i)]
	rest, ok := bytes.CutPrefix(body, planPrefix)
	if ok {
		rest, ok = bytes.CutPrefix(rest, in.PlanJSON)
	}
	if !ok {
		return fmt.Errorf("op %d: plan differs from in-process OptimizeBest: got %.300s want plan %s", i, body, in.PlanJSON)
	}
	switch {
	case bytes.Equal(rest, cachedTrue):
		if p.cached != nil && i < int64(len(p.cached)) {
			p.cached[i] = true
		}
	case bytes.Equal(rest, cachedFalse):
	default:
		return fmt.Errorf("op %d: unexpected response tail %q", i, rest)
	}
	return nil
}

// admitOps serves /v1/admit: every op must be admitted with exactly the
// in-process plan under its tenant's econ. Admitted machine time is summed
// per connection and tenant for the ledger check after the run.
type admitOps struct {
	planOps
	tenantJSON [][]byte             // per input: the quoted tenant name
	spent      []map[string]float64 // per connection
	admits     []int64              // per connection
}

func (a *admitOps) check(conn int, i int64, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("op %d: HTTP %d: %.200s", i, status, body)
	}
	k := a.idx(i)
	in := &a.inputs[k]
	rest, ok := bytes.CutPrefix(body, admitPrefix)
	if !ok {
		return fmt.Errorf("op %d: not admitted: %.300s", i, body)
	}
	for _, part := range [][]byte{a.tenantJSON[k], admitPlanKey, in.PlanJSON, admitRemKey} {
		if rest, ok = bytes.CutPrefix(rest, part); !ok {
			return fmt.Errorf("op %d: admit answer differs from in-process OptimizeBest (want plan %s): %.300s", i, in.PlanJSON, body)
		}
	}
	num, ok := bytes.CutSuffix(rest, []byte("}"))
	if !ok {
		return fmt.Errorf("op %d: malformed admit answer %.300s", i, body)
	}
	if rem, err := strconv.ParseFloat(string(num), 64); err != nil || rem < 0 {
		return fmt.Errorf("op %d: bad budgetRemaining %q", i, num)
	}
	a.spent[conn][in.Tenant] += in.Plan.MachineTime
	a.admits[conn]++
	return nil
}

// servingRun is one run of a request/response workload against live
// chronosd processes.
type servingRun struct {
	*bench
	spec   servingSpec
	inputs []planInput
	w      ops
	plan   *planOps // the plan view of w (admitOps embeds it)
	admit  *admitOps
	limit  int64      // ops the stream holds
	uniq   *uniqueGen // plan-cold's stream, generated a chunk at a time
	*fleet
	conns []*rawConn
}

// newServing generates a serving workload's inputs.
func newServing(b *bench) (*servingRun, error) {
	r := &servingRun{bench: b}
	secs := b.seconds.Seconds()
	switch b.workload {
	case "plan-hot":
		r.spec = servingSpec{path: "/v1/plan", replicas: 1, openRate: 4000}
		r.inputs = distinctJobs(rngFor(b.workload, b.seed, "jobs"), 2000, nil)
		r.limit = zipfOps(secs)
		r.plan = &planOps{inputs: r.inputs, seq: zipfSeq(rngFor(b.workload, b.seed, "zipf"), len(r.inputs), int(r.limit), 1.1)}
		r.w = r.plan
	case "plan-cold":
		r.spec = servingSpec{path: "/v1/plan", replicas: 1, openRate: 4000}
		r.uniq = newUniqueGen(rngFor(b.workload, b.seed, "jobs"))
		r.plan = &planOps{}
		r.w = r.plan
		// The traced run holds its whole stream: enough unique jobs for
		// its closed loops well above the measured capacity (they stop
		// early rather than repeat a job) and its open loop. The untraced
		// run generates coldChunk jobs at a time (see measureCold).
		n := int64(coldChunk)
		if b.traced {
			r.limit = int64(25000*secs/3 + r.spec.openRate*secs*2/3 + 1000)
			n = r.limit
		}
		r.fillCold(n)
	case "fleet-admit":
		r.spec = servingSpec{path: "/v1/admit", replicas: 2, openRate: 2000}
		r.inputs = distinctJobs(rngFor(b.workload, b.seed, "jobs"), 2000, admitTenants)
		r.limit = zipfOps(secs)
		r.admit = &admitOps{planOps: planOps{inputs: r.inputs,
			seq: zipfSeq(rngFor(b.workload, b.seed, "zipf"), len(r.inputs), int(r.limit), 1.1)}}
		for _, in := range r.inputs {
			q, _ := json.Marshal(in.Tenant)
			r.admit.tenantJSON = append(r.admit.tenantJSON, q)
		}
		for k := 0; k < r.spec.replicas; k++ {
			r.admit.spent = append(r.admit.spent, map[string]float64{})
			r.admit.admits = append(r.admit.admits, 0)
		}
		r.plan = &r.admit.planOps
		r.w = r.admit
	default:
		return nil, fmt.Errorf("unknown workload %q", b.workload)
	}
	r.fleet = &fleet{b: b, replicas: r.spec.replicas, args: r.daemonArgs}
	if r.uniq == nil {
		r.encode(true)
		b.digest.ints(r.plan.seq)
	}
	if b.traced {
		r.plan.cached = make([]bool, r.limit)
	}
	return r, nil
}

// zipfOps is the length of a Zipf workload's op stream: more than the
// closed loop can send in its warm-up and measured seconds at twice the
// measured capacity, and the traced run's open loop.
func zipfOps(secs float64) int64 { return int64(60000 * (secs + warmFor.Seconds())) }

// coldChunk is how many unique jobs the untraced plan-cold run generates
// at a time, about four seconds of its closed loop. Every job is pre-solved
// in-process and held with its request and expected answer (about a
// kilobyte), so a whole run's stream at once would take the generator past
// half a gigabyte.
const coldChunk = 80000

// fillCold replaces plan-cold's inputs with the stream's next n jobs; the
// first of them is op plan.base. Only the stream's first coldChunk jobs go
// into the input digest, so it is the same in traced and untraced runs
// whatever the run's speed.
func (r *servingRun) fillCold(n int64) {
	r.plan.base += int64(len(r.inputs))
	r.inputs, r.plan.inputs, r.plan.reqs = nil, nil, nil
	r.inputs = make([]planInput, n)
	for i := range r.inputs {
		r.inputs[i] = r.uniq.next()
	}
	r.plan.inputs = r.inputs
	r.encode(r.plan.base == 0)
}

// encode builds each input's pre-encoded HTTP request, sharing the body
// with it, and adds the bodies to the input digest when digested is set.
func (r *servingRun) encode(digested bool) {
	for i := range r.inputs {
		in := &r.inputs[i]
		req := postRequest("127.0.0.1", r.spec.path, in.Body)
		if digested && i < coldChunk {
			r.digest.bytes(in.Body)
		}
		in.Body = req[len(req)-len(in.Body):] // share the request's copy
		r.plan.reqs = append(r.plan.reqs, req)
	}
}

// daemonArgs returns each replica's chronosd flags beyond -addr: the shipped
// defaults, plus ring membership, tenants and the escrow ledger for the
// fleet workload.
func (r *servingRun) daemonArgs(addrs []string, dir string) ([][]string, error) {
	args := make([][]string, len(addrs))
	if r.spec.replicas == 1 {
		return args, nil
	}
	tenantsPath := filepath.Join(dir, "tenants.json")
	tj, _ := json.Marshal(map[string]any{"tenants": admitTenants})
	if err := os.WriteFile(tenantsPath, tj, 0o644); err != nil {
		return nil, err
	}
	var peers []string
	for _, a := range addrs {
		peers = append(peers, "http://"+a)
	}
	for k, a := range addrs {
		dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", k))
		args[k] = []string{"-self", "http://" + a, "-peers", strings.Join(peers, ","),
			"-tenants", tenantsPath, "-escrow", "-data-dir", dataDir}
	}
	return args, nil
}

// warm sends every distinct input once (Zipf workloads) so the timed phases
// start with a warm plan cache and funded escrow leases; the unique stream
// only warms its connections. Warm-up answers are checked like any other.
func (r *servingRun) warm(next *atomic.Int64) closedResult {
	if r.plan.seq == nil {
		return closedLoop(r.conns, r.w, next, 200, time.Minute, false, nil)
	}
	seq := r.plan.seq
	r.plan.seq = nil
	defer func() { r.plan.seq = seq }()
	var i atomic.Int64
	return closedLoop(r.conns, r.w, &i, int64(len(r.inputs)), time.Minute, false, nil)
}

// The traced run spends a third of its seconds in two closed loops (one
// plain, one traced) and two thirds in the open loop, whose tail needs many
// windows to be steady on a shared host. The untraced run spends all its
// seconds in the closed loop, after warmFor of it untimed.
func (r *servingRun) closedDur() time.Duration { return r.seconds / 3 }
func (r *servingRun) openDur() time.Duration   { return r.seconds - r.closedDur() }

// warmFor is the untimed start of the untraced closed loop: long enough
// for chronosd's heap, the fleet's forwarding connections and escrow leases
// to reach their steady state.
const warmFor = 2 * time.Second

// openOps is the number of ops the open loop sends; the closed loop stops
// where that many unused ops remain in the stream (closedLimit), and the
// open loop starts where the closed loop stopped (openBase; a closed loop
// may overshoot its limit by one op per connection).
func (r *servingRun) openOps() int64 {
	return int64(r.spec.openRate*r.openDur().Seconds()) + 1
}

func (r *servingRun) closedLimit() int64 { return r.limit - r.openOps() }

func (r *servingRun) openBase(next *atomic.Int64) int64 {
	return min(next.Load(), r.closedLimit())
}

// openWindow is the open loop's scoring window: 1000 requests at the
// workload's rate, so each window's p99 has ten samples beyond it.
func (r *servingRun) openWindow() time.Duration {
	return time.Duration(1000 / r.spec.openRate * float64(time.Second))
}

// run executes the workload and records its metrics.
func (r *servingRun) run() {
	if err := r.setup(); err != nil {
		r.abort(err)
	}
	// nproc connections: one per replica in a fleet, else all to the one.
	for k := 0; k < runtime.NumCPU(); k++ {
		c, err := dialRaw(r.daemons[k%len(r.daemons)].addr)
		if err != nil {
			r.abort(err)
		}
		r.conns = append(r.conns, c)
	}
	var next atomic.Int64
	warm := r.warm(&next)
	r.count(warm.ok, warm.failed, warm.firstErr)

	if r.traced {
		r.runTraced(&next)
		return
	}
	var closed closedResult
	if r.uniq == nil {
		r.count(closedLoop(r.conns, r.w, &next, r.limit, warmFor, false, nil).counts())
		closed = closedLoop(r.conns, r.w, &next, r.limit, r.seconds, false, r.cpu)
		r.count(closed.counts())
		r.checkFleet()
	} else {
		closed = r.measureCold(&next)
	}
	r.reportServing(closed)
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	setup, err := r.setupSeconds()
	if err != nil {
		r.abort(err)
	}
	r.metric("setup_s", setup, "s")
}

// measureCold is plan-cold's untraced closed loop: warmFor untimed, then
// r.seconds timed, run one chunk of the unique stream at a time. Between
// chunks the server idles, untimed, while the next chunk is generated; only
// whole sampling intervals inside a chunk are scored.
func (r *servingRun) measureCold(next *atomic.Int64) closedResult {
	var all closedResult
	warm := warmFor
	for all.elapsed < r.seconds {
		end := r.plan.base + int64(len(r.inputs))
		if next.Load() >= end {
			r.fillCold(coldChunk)
			runtime.GC() // the spent chunk's garbage, before timing resumes
			next.Store(r.plan.base)
			continue
		}
		if warm > 0 {
			w := closedLoop(r.conns, r.w, next, end, warm, false, nil)
			r.count(w.counts())
			warm -= w.elapsed
			continue
		}
		seg := closedLoop(r.conns, r.w, next, end, r.seconds-all.elapsed, false, r.cpu)
		r.count(seg.counts())
		all.ok += seg.ok
		all.failed += seg.failed
		all.elapsed += seg.elapsed
		all.slices = append(all.slices, seg.slices...)
	}
	return all
}

// reportServing prints the end-to-end metrics of one untraced serving run,
// and the closed loop's wall-clock figures and per-interval samples as #
// lines.
func (r *servingRun) reportServing(closed closedResult) {
	if len(closed.slices) == 0 {
		r.abort(fmt.Errorf("closed loop: no whole %v interval measured", sampleEvery))
	}
	var tput, cpu, gen []float64
	for _, s := range closed.slices {
		tput = append(tput, float64(s.ok)/s.dur.Seconds())
		cpu = append(cpu, s.cpu/float64(max(s.ok, 1))*1e6)
		gen = append(gen, s.gen/float64(max(s.ok, 1))*1e6)
	}
	ok, _, genCPU, _ := closed.sampled()
	r.info("closed loop: %d conns, %d ok in %.3fs: %.0f ops/s, server cpu %.2f us/op, loadgen cpu %.2f us/op (ungated)",
		len(r.conns), closed.ok, closed.elapsed.Seconds(), closed.sampledThroughput(), closed.cpuPerOp()*1e6,
		genCPU/float64(max(ok, 1))*1e6)
	r.info("closed loop: per %v: ops/s %.0f", sampleEvery, tput)
	r.info("closed loop: per %v: server cpu us/op %.1f", sampleEvery, cpu)
	r.info("closed loop: per %v: loadgen cpu us/op %.1f", sampleEvery, gen)
	r.info("closed loop: per %v: host steal %% %.0f", sampleEvery, scaled(closed.steal(), 100))
	r.metric("server_cpu_per_loadgen_cpu", closed.cpuRatio(), "ratio")
	r.metric("server_rss_mb", r.rss(), "MiB")
}

func (r *servingRun) close() {
	for _, c := range r.conns {
		c.Close()
	}
	stopAll()
	os.RemoveAll(r.work)
}

// ledgerTolerance is the accounting slack per admitted op: holder leases
// charge costs rounded up to a micro machine-second and owner pools near
// 1e12 carry about 1e-4 of float64 rounding per debit.
const ledgerTolerance = 2e-4

// checkFleet verifies the escrow ledger after a fleet-admit run. For each
// tenant, with owner pool P and outstanding escrow X on the tenant's owner
// and lease level L on the other replica (the holder):
//
//	spend <= budget
//	budget - P - X = spend - U, with U = X - L >= 0 the holder's spend not
//	yet reported to the owner (zero once the holder's renewal has run).
//
// The second line is budget - P - L = spend. A background renewal can move
// escrow between the scrapes, so the check is retried on fresh scrapes.
func (r *servingRun) checkFleet() {
	if r.admit == nil {
		return
	}
	spent := map[string]float64{}
	var admits int64
	for k := range r.admit.spent {
		for t, v := range r.admit.spent[k] {
			spent[t] += v
		}
		admits += r.admit.admits[k]
	}
	tol := ledgerTolerance * float64(admits+1)
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		var lines []string
		_, each, err := fetchAll(r.bases())
		for _, t := range admitTenants {
			if err != nil {
				break
			}
			var line string
			line, err = checkLedger(each, t, spent[t.Name], tol)
			lines = append(lines, line)
		}
		if lastErr = err; err == nil {
			for _, l := range lines {
				r.info("%s", l)
			}
			return
		}
	}
	r.fail(fmt.Errorf("escrow ledger check: %v", lastErr))
}

// checkLedger applies checkFleet's invariants to one tenant.
func checkLedger(each []scrape, t tenantSpec, spent, tol float64) (string, error) {
	owner := -1
	for k, s := range each {
		if _, ok := s.labelled("chronosd_escrow_outstanding", "tenant")[t.Name]; ok {
			owner = k
		}
	}
	if owner < 0 {
		return "", fmt.Errorf("tenant %s: no replica reports itself owner", t.Name)
	}
	pool := each[owner].labelled("chronosd_tenant_budget_remaining", "tenant")[t.Name]
	out := each[owner].labelled("chronosd_escrow_outstanding", "tenant")[t.Name]
	var lease float64
	for k, s := range each {
		if k != owner {
			lease += s.labelled("chronosd_escrow_lease_level", "tenant")[t.Name]
		}
	}
	switch {
	case spent > t.Budget:
		return "", fmt.Errorf("tenant %s: admitted %g machine-seconds over budget %g", t.Name, spent, t.Budget)
	case math.Abs(t.Budget-pool-lease-spent) > tol:
		return "", fmt.Errorf("tenant %s: budget %g - pool %g - holder lease %g = %g, admitted spend %g (tolerance %g)",
			t.Name, t.Budget, pool, lease, t.Budget-pool-lease, spent, tol)
	case out-lease < -tol:
		return "", fmt.Errorf("tenant %s: outstanding escrow %g below holder lease level %g", t.Name, out, lease)
	}
	return fmt.Sprintf("ledger %s: budget %g, owner pool %.6f, outstanding %.6f, holder lease %.6f, admitted %.6f (unreported %.6f)",
		t.Name, t.Budget, pool, out, lease, spent, out-lease), nil
}
