package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"chronos"
	"chronos/internal/plankey"
)

func TestZipfSeqReproducesFromSeed(t *testing.T) {
	a := zipfSeq(rngFor("plan-hot", 7, "zipf"), 2000, 20000, 1.1)
	b := zipfSeq(rngFor("plan-hot", 7, "zipf"), 2000, 20000, 1.1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different Zipf sequences")
	}
	if slices.Equal(a, zipfSeq(rngFor("plan-hot", 8, "zipf"), 2000, 20000, 1.1)) {
		t.Fatal("different seeds gave the same Zipf sequence")
	}
	counts := make([]int, 2000)
	for _, x := range a {
		if x < 0 || x >= 2000 {
			t.Fatalf("index %d out of [0, 2000)", x)
		}
		counts[x]++
	}
	// Zipf: the head outweighs the tail, without one key dominating.
	if counts[0] <= 2*counts[100] || counts[0] > len(a)/10 {
		t.Errorf("not head-heavy: count[0]=%d count[100]=%d of %d", counts[0], counts[100], len(a))
	}
}

func TestUniqueGenNeverRepeatsAPlanKey(t *testing.T) {
	g := newUniqueGen(rngFor("plan-cold", 3, "jobs"))
	h := newUniqueGen(rngFor("plan-cold", 3, "jobs"))
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		in := g.next()
		if again := h.next(); !bytes.Equal(in.Body, again.Body) {
			t.Fatalf("draw %d differs between two generators with one seed", i)
		}
		key := plankey.Key("", in.Job, in.Econ)
		if seen[key] {
			t.Fatalf("draw %d repeats plan key %s", i, key)
		}
		seen[key] = true
		// The body decodes to the job and the expected plan is the oracle's.
		var body planBody
		if err := json.Unmarshal(in.Body, &body); err != nil || body.Job != in.Job || body.Econ != in.Econ {
			t.Fatalf("draw %d: body %s does not carry the job", i, in.Body)
		}
		if in.Job.Deadline < 2*in.Job.TMin {
			t.Fatalf("draw %d: deadline %v under twice tmin %v", i, in.Job.Deadline, in.Job.TMin)
		}
		want, err := chronos.OptimizeBest(in.Job, in.Econ)
		if err != nil || want != in.Plan {
			t.Fatalf("draw %d: stored plan %+v, OptimizeBest %+v (%v)", i, in.Plan, want, err)
		}
	}
}

func TestDistinctJobsPerTenant(t *testing.T) {
	ins := distinctJobs(rngFor("fleet-admit", 1, "jobs"), 400, admitTenants)
	seen := map[string]bool{}
	for i, in := range ins {
		tn := admitTenants[i%len(admitTenants)]
		if in.Tenant != tn.Name || in.Econ.Theta != tn.Theta || in.Econ.UnitPrice != tn.UnitPrice {
			t.Fatalf("job %d: tenant %s econ %+v, want %s's", i, in.Tenant, in.Econ, tn.Name)
		}
		key := plankey.Key("", in.Job, in.Econ)
		if seen[key] {
			t.Fatalf("job %d repeats a plan key", i)
		}
		seen[key] = true
	}
}

func TestDigestIsStable(t *testing.T) {
	d1, d2 := newDigest("plan-hot", 1), newDigest("plan-hot", 1)
	for _, d := range []*digest{d1, d2} {
		d.bytes([]byte("abc"))
		d.ints([]int32{1, 2, 3})
	}
	if d1.String() != d2.String() {
		t.Fatal("equal inputs, different digests")
	}
	d3 := newDigest("plan-hot", 2)
	d3.bytes([]byte("abc"))
	d3.ints([]int32{1, 2, 3})
	if d3.String() == d1.String() {
		t.Fatal("the seed does not enter the digest")
	}
}
