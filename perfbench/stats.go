package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// the smallest sample with at least q of the samples at or below it. It
// returns NaN for an empty slice. Nearest rank never interpolates, so every
// reported percentile is a latency some request actually saw.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the q-quantile by nearest
// rank: the sample count that backs a tail percentile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of a copy of xs (the input is left unsorted); NaN when empty.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// mean of xs; zero when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// midMean is a smoothed median of sorted: the mean of the samples ranked
// between the 40th and 60th percentiles. It equals the median on a
// unimodal sample, but moves smoothly where the median jumps — when the
// samples are a near even mix of two modes, as fleet-admit's local and
// forwarded requests are, the median flips between the modes on a one-point
// change in the mix.
func midMean(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	lo, hi := int(0.4*float64(n)), int(math.Ceil(0.6*float64(n)))
	if hi <= lo {
		hi = lo + 1
	}
	return mean(sorted[lo:hi])
}

// dist summarises one latency sample set: its median and tail, and how many
// samples lie beyond the tail percentile, so a reader can tell whether the
// tail rests on enough observations.
type dist struct {
	N      int
	P50    float64
	Mid    float64 // midMean
	P99    float64
	Beyond int // samples above P99
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	return dist{N: len(s), P50: percentile(s, 0.5), Mid: midMean(s), P99: percentile(s, 0.99), Beyond: beyond(len(s), 0.99)}
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
