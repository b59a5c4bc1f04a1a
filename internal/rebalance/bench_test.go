package rebalance

import (
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wrf128 generates the paper's largest instance once per benchmark binary.
var wrf128 *trace.Trace

func wrfTrace(b *testing.B) *trace.Trace {
	b.Helper()
	if wrf128 == nil {
		inst, err := workload.FindInstance("WRF-128")
		if err != nil {
			b.Fatal(err)
		}
		cfg := workload.DefaultConfig()
		cfg.Iterations = 5
		cfg.SkipPECalibration = true
		wrf128, err = workload.Generate(inst, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return wrf128
}

func benchConfig(tr *trace.Trace, set *dvfs.Set) Config {
	return Config{
		Trace:      tr,
		Set:        set,
		Policy:     PolicyThreshold,
		Iterations: 30,
		Drift:      workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 2},
		Cache:      dimemas.NewReplayCache(),
	}
}

// BenchmarkRebalanceWRF128 measures the production path: a 30-iteration
// threshold-triggered closed loop over drifting WRF-128 where every
// iteration (the executed run and its FMax reference) is an O(events)
// retiming of the single memoized base-iteration skeleton. Compare with
// BenchmarkRebalanceWRF128Fresh, the identical (bit-for-bit) loop that
// rebuilds the drifted trace and replays it freshly every iteration — the
// ratio is the skeleton's speedup on the online problem.
func BenchmarkRebalanceWRF128(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the skeleton once, as a long-running service would; the loop
	// then measures the steady state.
	cache := dimemas.NewReplayCache()
	cfg := benchConfig(tr, set)
	cfg.Cache = cache
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictiveRebalanceWRF128 is the predictive-policy counterpart
// of BenchmarkRebalanceWRF128: the same warm-cache closed loop with the
// per-rank forecaster observing every iteration and every re-solve
// targeting the forecast loads. The delta against the threshold benchmark
// is the anticipation layer's steady-state overhead (O(ranks × window) per
// iteration — it must stay a rounding error next to the retiming).
func BenchmarkPredictiveRebalanceWRF128(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	cache := dimemas.NewReplayCache()
	cfg := benchConfig(tr, set)
	cfg.Policy = PolicyPredictive
	cfg.Cache = cache
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebalanceCappedWRF128 is the rebalance study's capped arm
// (internal/experiments, rebalance.go, restated here): a 60-iteration
// threshold-triggered loop over ramping WRF-128 under a peak budget of 70%
// of the all-FMax compute power, with exact profile peaks, on a warm cache.
// Every re-solve schedules on the loop's base-iteration skeleton
// (powercap.Reschedule), so the loop records nothing after warm-up.
func BenchmarkRebalanceCappedWRF128(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig(tr, set)
	cfg.Policy = PolicyCapped
	cfg.Cap = 0.70 * float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(dvfs.FMax))
	cfg.ExactPeaks = true
	cfg.Iterations = 60
	cfg.Drift = workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.5, Jitter: 0.02, Seed: 41}
	cfg.Threshold, cfg.Hysteresis, cfg.Margin, cfg.ReassignOverhead = 0.01, 2, 0.15, 3e-3
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebalanceWRF128Fresh is the comparison arm (RunFresh):
// identical loop, identical results, but every iteration pays a
// drifted-trace rebuild plus two full replays (and the run records the
// base-iteration skeleton once, uncached).
func BenchmarkRebalanceWRF128Fresh(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig(tr, set)
	cfg.Cache = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFresh(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
