package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.11, 2},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	// 1000 samples: the p99 is the 990th, 10 samples lie beyond it.
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(50, 0.99); got != 0 {
		t.Errorf("beyond(50, 0.99) = %d, want 0 (p99 of 50 is the max)", got)
	}
	if got := beyond(0, 0.99); got != 0 {
		t.Errorf("beyond(0, 0.99) = %d", got)
	}
}

func TestSummarizeReportsSampleCounts(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	d := summarize(xs)
	if d.N != 2000 || d.P50 != 1000 || d.P99 != 1980 || d.Beyond != 20 {
		t.Errorf("summarize = %+v, want N 2000 P50 1000 P99 1980 Beyond 20", d)
	}
	if xs[0] != 2000 {
		t.Error("summarize sorted its input in place")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if xs[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

func TestMidMeanSmoothsABimodalMedian(t *testing.T) {
	mix := func(local int) []float64 {
		var xs []float64
		for i := 0; i < 1000; i++ {
			if i < local {
				xs = append(xs, 350)
			} else {
				xs = append(xs, 520)
			}
		}
		return xs
	}
	a, b := summarize(mix(495)), summarize(mix(505))
	if a.P50 == b.P50 {
		t.Fatal("test mixes do not straddle the median")
	}
	if d := b.Mid - a.Mid; d > 20 || d < -20 {
		t.Errorf("midMean moved %v on a 1%% change in the mix (median moved %v)", d, b.P50-a.P50)
	}
	if m := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).Mid; m != 5.5 {
		t.Errorf("midMean(1..10) = %v, want 5.5", m)
	}
}

func TestClosedLoopFiguresAreRatiosOfTotals(t *testing.T) {
	// A fast and a slow interval: the figures weigh each by its ops and
	// seconds, not by interval count.
	r := closedResult{slices: []slice{
		{ok: 3000, cpu: 0.12, gen: 0.04, dur: 500 * time.Millisecond},
		{ok: 1000, cpu: 0.08, gen: 0.02, dur: 500 * time.Millisecond},
	}}
	if got := r.sampledThroughput(); got != 4000 {
		t.Errorf("throughput %v, want 4000 ops/s", got)
	}
	if got := r.cpuPerOp(); math.Abs(got-50e-6) > 1e-12 {
		t.Errorf("cpu per op %v, want 50us", got)
	}
	if got := r.cpuRatio(); math.Abs(got-0.2/0.06) > 1e-12 {
		t.Errorf("server/loadgen cpu %v, want %v", got, 0.2/0.06)
	}
}
