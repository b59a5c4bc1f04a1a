// Package workload generates the synthetic MPI application traces that stand
// in for the paper's PowerPC/Myrinet captures of NAS CG/MG/IS, BT-MZ,
// SPECFEM3D, WRF and PEPC.
//
// Each application instance is generated with its real communication-pattern
// class (ring exchanges, 2-D halos, all-to-all, all-gather, multi-zone
// point-to-point, two computation phases for PEPC) and with per-rank
// computation loads calibrated so that the Load Balance metric (eq. 4)
// matches Table 3 of the paper exactly, and the Parallel Efficiency (eq. 5)
// matches Table 3 after replay on the default platform. Everything is
// deterministic for a given instance.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// ErrUnreachableLB reports that a load shape has no spread, so no rescaling
// can reach the requested load balance. Like every load-shaping error, it
// reaches callers wrapped as "workload: <instance>: …".
var ErrUnreachableLB = errors.New("load shape cannot reach target balance")

// calibrateLB rescales positive loads so that mean/max equals target
// exactly, preserving the ordering of ranks and keeping every load positive.
// The result is normalized to max = 1.
//
// Strategy: normalize to x = w/max ∈ (0, 1]; if the shape is too balanced
// (mean > target), repeatedly square the normalized loads to widen the
// spread; then affinely compress deviations from the maximum with
// k = (1−target)/(1−mean), which lands the mean exactly on target and keeps
// every value ≥ 1−k > 0.
func calibrateLB(loads []float64, target float64) ([]float64, error) {
	if len(loads) == 0 {
		return nil, errors.New("empty load vector")
	}
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("target load balance %v outside (0, 1]", target)
	}
	max := stats.Max(loads)
	if max <= 0 {
		return nil, errors.New("loads must contain a positive maximum")
	}
	x := make([]float64, len(loads))
	for i, w := range loads {
		if w < 0 {
			return nil, fmt.Errorf("negative load %v at rank %d", w, i)
		}
		x[i] = w / max
	}
	if target == 1 {
		for i := range x {
			x[i] = 1
		}
		return x, nil
	}
	// Widen spread until the shape is at least as imbalanced as requested.
	const maxSquarings = 200
	for s := 0; stats.Mean(x) > target; s++ {
		if s == maxSquarings {
			return nil, fmt.Errorf("%w (target %v)", ErrUnreachableLB, target)
		}
		before := stats.Mean(x)
		for i := range x {
			x[i] *= x[i]
		}
		if stats.Mean(x) >= before-1e-15 {
			return nil, fmt.Errorf("%w (no spread, target %v)", ErrUnreachableLB, target)
		}
	}
	// Compress deviations to hit the target mean exactly.
	mean := stats.Mean(x)
	k := (1 - target) / (1 - mean)
	for i := range x {
		x[i] = 1 - k*(1-x[i])
	}
	return x, nil
}

// Shape generators. All return positive loads with max ≈ 1 and are
// deterministic for a given rng state.

// noisyLoads models well-balanced stencil/iterative codes: unit loads with
// multiplicative log-normal-ish noise of relative scale sigma.
func noisyLoads(n int, rng *rand.Rand, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(rng.NormFloat64() * sigma)
	}
	return stats.Normalize(out)
}

// rampLoads models codes whose work grows with rank index (domain position):
// a linear ramp from 1−spread to 1 with small noise.
func rampLoads(n int, rng *rand.Rand, spread, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		out[i] = (1 - spread + spread*frac) * math.Exp(rng.NormFloat64()*sigma)
	}
	return stats.Normalize(out)
}

// skewLoads models value-dependent codes (bucket sort): loads follow
// floor + (1−floor)·u^pow, so a few ranks dominate.
func skewLoads(n int, rng *rand.Rand, floor, pow float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		out[i] = floor + (1-floor)*math.Pow(u, pow)
	}
	// Guarantee one rank is the clear maximum so normalization is stable.
	out[rng.Intn(n)] = 1
	return stats.Normalize(out)
}

// zoneLoads models NPB multi-zone partitioning (BT-MZ): zone sizes grow
// geometrically and zones are dealt round-robin to ranks, so a few ranks
// receive far more work than the rest.
func zoneLoads(n int, rng *rand.Rand) []float64 {
	// BT-MZ class C has 256 zones with strongly varying sizes.
	zones := 2 * n
	sizes := make([]float64, zones)
	for i := range sizes {
		// Geometric growth with ratio spread ≈ 20× between the smallest
		// and largest zone, plus jitter.
		frac := float64(i) / float64(zones-1)
		sizes[i] = math.Pow(20, frac) * math.Exp(rng.NormFloat64()*0.1)
	}
	out := make([]float64, n)
	for i, s := range sizes {
		out[i%n] += s
	}
	return stats.Normalize(out)
}

// twoPhaseLoads builds the PEPC-like pair of per-phase load vectors: a tree
// construction phase whose cost ascends with rank and a force-evaluation
// phase whose cost descends, with phase weights wA and wB (wA+wB = 1).
// The mixing parameter λ ∈ [0, 1] controls how much spread each phase has;
// the caller bisects λ to reach a target *total* load balance.
func twoPhaseLoads(n int, rng *rand.Rand, wA, wB, lambda float64) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	noiseA := make([]float64, n)
	noiseB := make([]float64, n)
	for i := 0; i < n; i++ {
		noiseA[i] = math.Exp(rng.NormFloat64() * 0.03)
		noiseB[i] = math.Exp(rng.NormFloat64() * 0.03)
	}
	for i := 0; i < n; i++ {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		// Deviation from the mean grows with λ; ascending for the tree
		// phase, descending for the force phase. The tree-phase deviation
		// dominates so the anti-correlated phases do not cancel in the
		// totals (per-phase imbalance exceeds the total one), while the
		// force-phase deviation stays small enough that the per-phase
		// synchronization penalty (max A + max B vs. max total) leaves the
		// Table 3 parallel efficiency attainable.
		devA := lambda * (frac - 0.5) * 2.4
		devB := lambda * (0.5 - frac) * 0.45
		a[i] = wA * (1 + devA) * noiseA[i]
		b[i] = wB * (1 + devB) * noiseB[i]
		if a[i] < 1e-6 {
			a[i] = 1e-6
		}
		if b[i] < 1e-6 {
			b[i] = 1e-6
		}
	}
	return a, b
}

// totalsLB returns the load balance of the sum of two phase vectors.
func totalsLB(a, b []float64) float64 {
	tot := make([]float64, len(a))
	for i := range a {
		tot[i] = a[i] + b[i]
	}
	return stats.Mean(tot) / stats.Max(tot)
}

// calibrateTwoPhase bisects λ so the total load balance hits the target.
func calibrateTwoPhase(n int, seed int64, wA, wB, targetLB float64) (a, b []float64, err error) {
	gen := func(lambda float64) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(seed))
		return twoPhaseLoads(n, rng, wA, wB, lambda)
	}
	lo, hi := 0.0, 1.0
	aLo, bLo := gen(lo)
	if totalsLB(aLo, bLo) < targetLB {
		return nil, nil, fmt.Errorf("two-phase noise floor below target balance %v", targetLB)
	}
	aHi, bHi := gen(hi)
	if totalsLB(aHi, bHi) > targetLB {
		return nil, nil, fmt.Errorf("two-phase spread cannot reach target balance %v", targetLB)
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		am, bm := gen(mid)
		if totalsLB(am, bm) > targetLB {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b = gen((lo + hi) / 2)
	return a, b, nil
}
