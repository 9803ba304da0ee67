package optimize

import (
	"math"

	"chronos/internal/analysis"
)

// rSafetyCap bounds the search range. U(r) is eventually strictly decreasing
// (cost grows linearly in r while log10(R - Rmin) is bounded above), so the
// optimum is far below this; the cap only guards degenerate inputs.
const rSafetyCap = 1 << 20

// Result is the outcome of the joint optimization for one strategy.
type Result struct {
	// Strategy names the optimized model.
	Strategy string
	// R is the optimal number of extra attempts.
	R int
	// Utility is U(R).
	Utility float64
	// PoCD and MachineTime are the two tradeoff components at R.
	PoCD        float64
	MachineTime float64
	// Cost is UnitPrice * MachineTime.
	Cost float64
}

// Solve runs Algorithm 1 of the paper for one strategy model: an ascent
// search over the provably concave region r > Gamma (Phase 1) combined with
// an exhaustive scan of the integers 0 <= r < ceil(Gamma) (Phase 2). By
// Theorem 9 the combination returns a global maximizer of U.
func Solve(m analysis.Model, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Params().Validate(); err != nil {
		return Result{}, err
	}
	// The bracketing and binary-search phases revisit r values; cache the
	// closed-form evaluations for the duration of the solve.
	mm, pooled := acquire(m)
	if pooled {
		defer mm.release()
	}
	return solveMemoized(mm, cfg)
}

// SolveStrategy is Solve for a (strategy, params) pair: the model is bound
// directly to a pooled recurrence kernel, so the entire solve performs no
// heap allocation.
func SolveStrategy(s analysis.Strategy, p analysis.Params, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mm := acquireStrategy(s, p)
	defer mm.release()
	return solveMemoized(mm, cfg)
}

// solveMemoized is Solve after validation and memoization, shared with
// SolveCapped so a constrained solve reuses the same model evaluations.
func solveMemoized(m *memoModel, cfg Config) (Result, error) {
	gamma := m.Gamma()
	start := int(math.Ceil(gamma))
	if start < 0 {
		start = 0
	}

	// Phase 1: U is concave (hence unimodal) on r >= start. Bracket the peak
	// by exponential probing, then binary-search the first difference. The
	// closure does not escape concaveArgmax, so it stays on the stack. A NaN
	// utility (a closed form overflowed) scores as -Inf: it must neither
	// steer the bracket nor stand as the incumbent Phase 2 has to beat.
	bestR := concaveArgmax(func(r int) float64 { return scoreable(cfg.Utility(m, r)) }, start)
	bestU := scoreable(cfg.Utility(m, bestR))

	// Phase 2: exhaustive scan below the concavity threshold, riding the
	// kernel's sequential Advance cursor. The scan is bounded like Phase 1's
	// bracket, by rSafetyCap, and ends at the first r whose machine time is
	// not finite: the closed forms' powers only grow with r, so past that
	// point no r has a utility to compare. Without both bounds a threshold
	// that rounds to ~1e16 (a restarted attempt's miss probability rounding
	// to 1-eps) turns the scan into an unbounded loop.
	end := min(start, rSafetyCap)
	for r := 0; r < end; r++ {
		_, mt, u := m.scanProbe(cfg, r)
		if math.IsNaN(mt) || math.IsInf(mt, 0) {
			break
		}
		if u > bestU {
			bestU, bestR = u, r
		}
	}

	if math.IsInf(bestU, -1) {
		return Result{}, ErrInfeasible
	}
	mt := m.MachineTime(bestR)
	return Result{
		Strategy:    m.Name(),
		R:           bestR,
		Utility:     bestU,
		PoCD:        m.PoCD(bestR),
		MachineTime: mt,
		Cost:        cfg.UnitPrice * mt,
	}, nil
}

// scoreable maps a NaN utility to -Inf, the score of an infeasible r.
func scoreable(u float64) float64 {
	if math.IsNaN(u) {
		return math.Inf(-1)
	}
	return u
}

// concaveArgmax maximizes a unimodal (discretely concave) function over the
// integers r >= start in O(log(peak)) evaluations: exponential search to
// bracket the peak, then binary search on the sign of the first difference.
func concaveArgmax(u func(int) float64, start int) int {
	// If the function is already non-increasing at start, start is optimal
	// within the concave region.
	if u(start+1) <= u(start) {
		return start
	}
	// Exponential bracketing: find hi with u(hi+1) <= u(hi).
	lo, step := start, 1
	hi := start + 1
	for u(hi+1) > u(hi) {
		lo = hi
		step *= 2
		hi += step
		if hi > rSafetyCap {
			return rSafetyCap
		}
	}
	// Invariant: u is increasing at lo, non-increasing at hi; peak in
	// (lo, hi]. Binary search the first r with u(r+1) <= u(r).
	for lo < hi {
		mid := lo + (hi-lo)/2
		if u(mid+1) > u(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SolveAll optimizes every Chronos strategy for the same parameters and
// returns the per-strategy results keyed by paper order (Clone, S-Restart,
// S-Resume). Strategies that are infeasible (PoCD never exceeds RMin) are
// reported with Utility = -Inf and R = -1.
func SolveAll(p analysis.Params, cfg Config) []Result {
	out := make([]Result, 0, 3)
	for _, s := range analysis.Strategies() {
		res, err := SolveStrategy(s, p, cfg)
		if err != nil {
			res = Result{Strategy: s.String(), R: -1, Utility: math.Inf(-1)}
		}
		out = append(out, res)
	}
	return out
}

// Best returns the strategy result with the highest utility from SolveAll,
// and ErrInfeasible if none is feasible.
func Best(p analysis.Params, cfg Config) (Result, error) {
	results := SolveAll(p, cfg)
	best := results[0]
	for _, r := range results[1:] {
		if r.Utility > best.Utility {
			best = r
		}
	}
	if math.IsInf(best.Utility, -1) {
		return Result{}, ErrInfeasible
	}
	return best, nil
}
