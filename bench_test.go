package repro

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the extension studies. Each benchmark runs the
// experiment end to end (workload generation is cached across iterations)
// and reports the headline normalized-energy numbers as custom metrics so
// `go test -bench . -benchmem` regenerates every reported artifact:
//
//	go test -bench=Figure2 -benchmem
//
// Absolute wall-clock numbers measure this simulator, not the paper's
// PowerPC cluster; the *shape* of the reported metrics is what reproduces
// the paper (see EXPERIMENTS.md).

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
)

// benchSuite shares generated (calibrated) traces across all benchmarks.
var benchSuite = experiments.QuickSuite()

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the trace cache outside the timed region.
	if err := e.Run(benchSuite, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchSuite, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1GearSets(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkTable2GearSets(b *testing.B)        { runExperiment(b, "table2") }
func BenchmarkTable3Characteristics(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFigure1Gantt(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFigure3EnergyVsLB(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFigure4Exponential(b *testing.B)    { runExperiment(b, "fig4") }
func BenchmarkFigure5Beta(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFigure6StaticPower(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFigure7ActivityFactor(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFigure8AVGContinuous(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9AVGDiscrete(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFigure10MaxVsAvg(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkScalingStudy(b *testing.B)          { runExperiment(b, "scaling") }
func BenchmarkAblateProtocol(b *testing.B)        { runExperiment(b, "ablate-protocol") }
func BenchmarkAblateCollectives(b *testing.B)     { runExperiment(b, "ablate-coll") }
func BenchmarkAblateRounding(b *testing.B)        { runExperiment(b, "ablate-rounding") }
func BenchmarkJitterVsStatic(b *testing.B)        { runExperiment(b, "jitter") }
func BenchmarkPerPhaseDVFS(b *testing.B)          { runExperiment(b, "phased") }
func BenchmarkOptimizeGears(b *testing.B)         { runExperiment(b, "optimize-gears") }

// BenchmarkFigure2GearSetSizes additionally reports the headline result of
// the gear-set study: the average normalized energy of the six-gear set and
// its gap to the limited continuous set.
func BenchmarkFigure2GearSetSizes(b *testing.B) {
	// Warm cache.
	if _, err := benchSuite.Figure2(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sixAvg, gapAvg float64
	for i := 0; i < b.N; i++ {
		sw, err := benchSuite.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		sixAvg, gapAvg = 0, 0
		for _, app := range sw.Apps {
			six, err := sw.Cell(app, "6g")
			if err != nil {
				b.Fatal(err)
			}
			lim, err := sw.Cell(app, "limited")
			if err != nil {
				b.Fatal(err)
			}
			sixAvg += six.Energy
			gapAvg += six.Energy - lim.Energy
		}
		sixAvg /= float64(len(sw.Apps))
		gapAvg /= float64(len(sw.Apps))
	}
	b.ReportMetric(sixAvg*100, "energy6g_%")
	b.ReportMetric(gapAvg*100, "gap_to_continuous_%")
}

// Micro-benchmarks of the load-bearing building blocks, so performance
// regressions in the simulator or the algorithms are visible in isolation.

// wrfReplayInputs builds the WRF-128 trace plus a realistic MAX gear
// vector, the single-evaluation workload the replay benchmarks share.
func wrfReplayInputs(b *testing.B) (*Trace, Platform, SimOptions, []float64) {
	b.Helper()
	tr, err := benchSuite.Trace("WRF-128")
	if err != nil {
		b.Fatal(err)
	}
	p := benchSuite.Platform()
	opts := SimOptions{Beta: benchSuite.Beta, FMax: benchSuite.Gen.FMax}
	base, err := Simulate(tr, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	bal, err := NewBalancer(ContinuousLimited(), benchSuite.Beta)
	if err != nil {
		b.Fatal(err)
	}
	a, err := bal.Assign(MAX, base.Compute)
	if err != nil {
		b.Fatal(err)
	}
	return tr, p, opts, a.Freqs()
}

// BenchmarkSimulateWRF128 measures one uncached Simulate of WRF-128 under a
// MAX gear assignment: an FMax replay that records the skeleton, then one
// retime pass at the gears.
func BenchmarkSimulateWRF128(b *testing.B) {
	tr, p, opts, freqs := wrfReplayInputs(b)
	opts.Freqs = freqs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBaselineWRF128 measures one uncached Simulate of WRF-128
// with nil frequencies and no timeline: the plain FMax replay, which records
// nothing.
func BenchmarkSimulateBaselineWRF128(b *testing.B) {
	tr, p, opts, _ := wrfReplayInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSkeletonWRF128 measures recording WRF-128's timing
// skeleton: one replay at FMax that appends every retirement to the
// schedule, the cost a cache miss pays before any retime.
func BenchmarkBuildSkeletonWRF128(b *testing.B) {
	tr, p, opts, _ := wrfReplayInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTimingSkeleton(tr, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeWRF128 measures the same evaluation as
// BenchmarkSimulateWRF128 off the recorded timing skeleton: bit-identical
// results from a single allocation-free forward pass.
func BenchmarkRetimeWRF128(b *testing.B) {
	tr, p, opts, freqs := wrfReplayInputs(b)
	sk, err := BuildTimingSkeleton(tr, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	var res SimResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sk.RetimeInto(&res, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeDelta measures the optimizers' hot path on WRF-128:
// re-scoring after a single-rank gear change through one reused DeltaState.
// The candidate cycle is a palindromic random walk, so every evaluation —
// including the wrap-around — dirties exactly one rank, the neighborhood
// shape gear searches and power-cap refinement actually produce.
func BenchmarkRetimeDelta(b *testing.B) {
	tr, p, opts, freqs := wrfReplayInputs(b)
	sk, err := BuildTimingSkeleton(tr, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const half = 32
	cands := make([][]float64, 0, 2*half)
	cur := append([]float64(nil), freqs...)
	for i := 0; i < half; i++ {
		cur = append([]float64(nil), cur...)
		cur[rng.Intn(len(cur))] = 0.8 + rng.Float64()*1.5
		cands = append(cands, cur)
	}
	for i := half - 2; i >= 0; i-- {
		cands = append(cands, cands[i])
	}
	var st DeltaState
	if _, err := sk.RetimeDelta(&st, freqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.RetimeDelta(&st, cands[i%len(cands)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeBatch measures scoring 64 independent gear vectors on
// WRF-128 in one struct-of-arrays schedule walk; ns/op covers the whole
// batch (divide by 64 to compare with BenchmarkRetimeWRF128's single pass).
func BenchmarkRetimeBatch(b *testing.B) {
	tr, p, opts, freqs := wrfReplayInputs(b)
	sk, err := BuildTimingSkeleton(tr, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	cands := make([][]float64, 64)
	for c := range cands {
		v := append([]float64(nil), freqs...)
		v[rng.Intn(len(v))] = 0.8 + rng.Float64()*1.5
		cands[c] = v
	}
	var res BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sk.RetimeBatchInto(&res, cands); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates/op")
}

// BenchmarkReplayCacheBaselineHit measures a warm ReplayCache read of
// WRF-128's timeline baseline: the read powercap, analyze and batch
// requests make on every request, which must stay a memo hit rather than a
// retime.
func BenchmarkReplayCacheBaselineHit(b *testing.B) {
	tr, p, opts, _ := wrfReplayInputs(b)
	opts.RecordTimeline = true
	cache := NewReplayCache()
	if _, err := cache.Original(tr, p, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Original(tr, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeWRF128 measures the full uncached pipeline (baseline
// replay + assignment + DVFS replay + energy accounting) on WRF-128.
func BenchmarkAnalyzeWRF128(b *testing.B) {
	tr, err := benchSuite.Trace("WRF-128")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(AnalysisConfig{Trace: tr, Set: ContinuousLimited(), Algorithm: MAX}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateIS64(b *testing.B) {
	cfg := DefaultWorkloadConfig()
	cfg.Iterations = 5
	cfg.SkipPECalibration = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorkload("IS-64", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignMAX128(b *testing.B) {
	tr, err := benchSuite.Trace("PEPC-128")
	if err != nil {
		b.Fatal(err)
	}
	comp := tr.ComputeTimes()
	six, err := UniformGearSet(6)
	if err != nil {
		b.Fatal(err)
	}
	bal, err := NewBalancer(six, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bal.Assign(MAX, comp); err != nil {
			b.Fatal(err)
		}
	}
}
