package powercap

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

func wrfTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	if wrf128 == nil {
		inst, err := workload.FindInstance("WRF-128")
		if err != nil {
			tb.Fatal(err)
		}
		cfg := workload.DefaultConfig()
		cfg.Iterations = 5
		cfg.SkipPECalibration = true
		wrf128, err = workload.Generate(inst, cfg)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return wrf128
}

// sweepCaps are the eight peak-cap points of the benchmark sweep, as
// fractions of the uncapped all-compute peak.
var sweepCaps = []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80}

// runSweep runs the sweep and returns its evaluations and its slack
// reclamation counts (zero on the fresh arm, which never screens).
func runSweep(tb testing.TB, tr *trace.Trace, set *dvfs.Set, fresh bool) (evals int, st ReclaimStats) {
	tb.Helper()
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	uncappedPeak := float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(dvfs.FMax))
	// One cache per sweep: the eight rows share one timing skeleton and one
	// timeline baseline, exactly like the pwrsim experiment. The fresh arm
	// replays everything, the baseline included.
	run, cache := RunReclaimStats, dimemas.NewReplayCache()
	if fresh {
		run, cache = func(cfg Config) (*Result, ReclaimStats, error) {
			res, err := RunFresh(cfg)
			return res, ReclaimStats{}, err
		}, nil
	}
	for _, frac := range sweepCaps {
		res, rs, err := run(Config{
			Trace: tr,
			Set:   set,
			Cap:   frac * uncappedPeak,
			Cache: cache,
		})
		if err != nil {
			tb.Fatal(err)
		}
		evals += res.Evaluations
		st.Screened += rs.Screened
		st.Walked += rs.Walked
		st.Accepted += rs.Accepted
	}
	return evals, st
}

// BenchmarkPowercapSweep measures the production path: an 8-cap peak-mode
// sweep over WRF-128 where every candidate gear vector is scored by
// retiming the shared timing skeleton. Compare with
// BenchmarkPowercapSweepSimulate, the same sweep scored by fresh Simulate
// calls — the ratio is the skeleton's speedup on this workload.
func BenchmarkPowercapSweep(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var evals int
	var st ReclaimStats
	for i := 0; i < b.N; i++ {
		evals, st = runSweep(b, tr, set, false)
	}
	b.ReportMetric(float64(evals), "evals/sweep")
	b.ReportMetric(float64(st.Screened), "screened/sweep")
}

// BenchmarkPowercapSweepSimulate is the comparison arm: identical sweep,
// identical (bit-for-bit) results, but every candidate pays a full replay
// (RunFresh).
func BenchmarkPowercapSweepSimulate(b *testing.B) {
	tr := wrfTrace(b)
	set, err := dvfs.Uniform(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		evals, _ = runSweep(b, tr, set, true)
	}
	b.ReportMetric(float64(evals), "evals/sweep")
}
