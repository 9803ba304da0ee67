package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"chronos"
	"chronos/internal/plankey"
	"chronos/internal/tenant"
)

// Workload inputs are a pure function of (workload, seed, run length): every
// generator below draws from a rand.Rand seeded by rngFor, and the digest
// printed with each run hashes every generated request body in order, so two
// runs can show they sent identical inputs.

// rngFor derives the generator stream for one workload and seed.
func rngFor(workload string, seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64() ^ seed*0x9E3779B97F4A7C15)))
}

// planInput is one distinct job as the generator emits it: the pre-encoded
// request body, and the in-process answer every response must reproduce.
type planInput struct {
	Job    chronos.JobParams
	Econ   chronos.Econ // the econ the server solves under (tenant-filled for admits)
	Tenant string       // admits only
	Body   []byte       // request body
	Plan   chronos.Plan // chronos.OptimizeBest(Job, Econ)
	// PlanJSON is Plan as encoding/json writes it: the bytes a correct
	// response embeds (hotjson is byte-compatible with encoding/json).
	PlanJSON []byte
}

// roundTo rounds x to the given number of decimals.
func roundTo(x float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(x*p) / p
}

// sigDigits rounds x to n significant digits.
func sigDigits(x float64, n int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', n, 64), 64)
	return v
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// sweepJob draws one job over the planner's operating range: tasks 1-10k
// (log-uniform), beta 1.1-3, deadline 15-1000 s (log-uniform), theta
// 1e-6-1e-2 (log-uniform). Values are rounded to at most five significant
// digits, below the plan key's six, so distinct draws are distinct keys.
//
// Deadlines stay at least twice tmin. Closer to tmin, a small theta can
// send the optimizer into a search that runs for seconds and grows its
// memo by gigabytes (tasks 157, deadline 15.8, tmin 11.44, beta 1.539,
// theta 7.72e-6 is one such job) — a request no workload should send
// until the planner bounds it.
func sweepJob(rng *rand.Rand) (chronos.JobParams, chronos.Econ) {
	for {
		tmin := roundTo(2+rng.Float64()*10, 2)
		tauEst := roundTo(tmin*(0.2+rng.Float64()*0.3), 2)
		j := chronos.JobParams{
			Tasks:    int(math.Round(logUniform(rng, 1, 10000))),
			Deadline: roundTo(logUniform(rng, 15, 1000), 1),
			TMin:     tmin,
			Beta:     roundTo(1.1+rng.Float64()*1.9, 3),
			TauEst:   tauEst,
			TauKill:  roundTo(tauEst+tmin*(0.1+rng.Float64()*0.3), 2),
		}
		e := chronos.Econ{Theta: sigDigits(logUniform(rng, 1e-6, 1e-2), 3), UnitPrice: 1}
		if j.Deadline >= 2*j.TMin {
			return j, e
		}
	}
}

type planBody struct {
	Job      chronos.JobParams `json:"job"`
	Econ     chronos.Econ      `json:"econ"`
	Strategy string            `json:"strategy"`
}

type admitBody struct {
	Tenant   string            `json:"tenant"`
	Job      chronos.JobParams `json:"job"`
	Strategy string            `json:"strategy"`
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// screen solves one candidate in-process and fills its expected answer.
// It rejects jobs the server would not answer with a 200 plan (infeasible,
// or a plan with a non-finite field JSON cannot carry).
func screen(in *planInput) bool {
	plan, err := chronos.OptimizeBest(in.Job, in.Econ)
	if err != nil || !finite(plan.PoCD, plan.MachineTime, plan.Cost, plan.Utility) {
		return false
	}
	in.Plan = plan
	in.PlanJSON, err = json.Marshal(plan)
	return err == nil
}

// uniqueGen emits pre-screened plan requests whose plan keys never repeat:
// every emitted job is a guaranteed cache miss on a server that has not seen
// the stream before.
type uniqueGen struct {
	rng  *rand.Rand
	seen map[string]struct{}
	key  []byte
}

func newUniqueGen(rng *rand.Rand) *uniqueGen {
	return &uniqueGen{rng: rng, seen: map[string]struct{}{}}
}

func (g *uniqueGen) next() planInput {
	for {
		job, econ := sweepJob(g.rng)
		g.key = plankey.AppendKey(g.key[:0], "", job, econ)
		if _, dup := g.seen[string(g.key)]; dup {
			continue
		}
		in := planInput{Job: job, Econ: econ}
		if !screen(&in) {
			continue
		}
		g.seen[string(g.key)] = struct{}{}
		in.Body, _ = json.Marshal(planBody{Job: job, Econ: econ, Strategy: "best"})
		return in
	}
}

// tenantSpec is one budget pool of the fleet-admit workload.
type tenantSpec struct {
	Name      string  `json:"name"`
	Budget    float64 `json:"budget"`
	Theta     float64 `json:"theta"`
	UnitPrice float64 `json:"unitPrice"`
}

// admitTenants are the fleet-admit pools. Budgets dwarf a run's spend (at
// most a few 1e10 machine-seconds), so no pool drains and no plan is
// squeezed below its unconstrained optimum; a lease target (10% of budget)
// still fits the escrow ledger's int64 micro-second fixed point.
var admitTenants = []tenantSpec{
	{Name: "etl", Budget: 1e12, Theta: 1e-4, UnitPrice: 1},
	{Name: "adhoc", Budget: 1e12, Theta: 1e-3, UnitPrice: 1},
	{Name: "ml", Budget: 1e12, Theta: 1e-5, UnitPrice: 2},
	{Name: "report", Budget: 1e12, Theta: 3e-4, UnitPrice: 0.5},
}

// admitRegistry builds the admitTenants pools in-process.
func admitRegistry() (*tenant.Registry, error) {
	limits := map[string]tenant.Limits{}
	for _, t := range admitTenants {
		limits[t.Name] = tenant.Limits{Budget: t.Budget, Theta: t.Theta, UnitPrice: t.UnitPrice}
	}
	return tenant.NewRegistry(limits)
}

// distinctJobs draws n pre-screened jobs with pairwise distinct plan keys.
// With tenants set, job i belongs to tenants[i%len(tenants)] and is solved
// under that pool's econ, as chronosd fills it for an econ-less admit.
func distinctJobs(rng *rand.Rand, n int, tenants []tenantSpec) []planInput {
	g := newUniqueGen(rng)
	if len(tenants) == 0 {
		out := make([]planInput, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	out := make([]planInput, 0, n)
	for len(out) < n {
		t := tenants[len(out)%len(tenants)]
		job, _ := sweepJob(rng)
		econ := chronos.Econ{Theta: t.Theta, UnitPrice: t.UnitPrice}
		g.key = plankey.AppendKey(g.key[:0], "", job, econ)
		if _, dup := g.seen[string(g.key)]; dup {
			continue
		}
		in := planInput{Job: job, Econ: econ, Tenant: t.Name}
		if !screen(&in) {
			continue
		}
		g.seen[string(g.key)] = struct{}{}
		in.Body, _ = json.Marshal(admitBody{Tenant: t.Name, Job: job, Strategy: "best"})
		out = append(out, in)
	}
	return out
}

// zipfSeq draws n indices over [0, items) from a Zipf law with exponent s
// and offset 10 (P(k) ∝ (10+k)^-s): a hot head and a long tail, the key mix
// a plan cache exists for, with no single key taking more than a few
// percent — in a fleet, which replica owns the hottest key would otherwise
// decide much of a run's cost.
func zipfSeq(rng *rand.Rand, items, n int, s float64) []int32 {
	z := rand.NewZipf(rng, s, 10, uint64(items-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// digest accumulates the generated inputs into one printable hash.
type digest struct{ h hash.Hash }

func newDigest(workload string, seed uint64) *digest {
	d := &digest{h: sha256.New()}
	fmt.Fprintf(d.h, "%s|%d|", workload, seed)
	return d
}

func (d *digest) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) ints(xs []int32) {
	var n [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(n[:], uint32(x))
		d.h.Write(n[:])
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
