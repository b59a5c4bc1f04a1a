package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// imbalancedTrace builds a small strongly imbalanced trace by hand: four
// ranks with loads 1.0/0.25/0.25/0.25 synchronized by a barrier.
func imbalancedTrace(iters int) *trace.Trace {
	tr := trace.New("micro", 4)
	loads := []float64{1.0, 0.25, 0.25, 0.25}
	for it := 0; it < iters; it++ {
		for r, w := range loads {
			tr.Add(r, trace.Compute(w))
		}
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	return tr
}

func runMAX(t *testing.T, tr *trace.Trace, set *dvfs.Set) *Result {
	t.Helper()
	res, err := Run(Config{Trace: tr, Set: set, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	if _, err := Run(Config{Set: six}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(1)}); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(1), Set: six, Beta: betaPtr(-1)}); err == nil {
		t.Error("negative beta should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(1), Set: six, FMax: -1}); err == nil {
		t.Error("negative fmax should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(1), Set: six, Power: power.Config{ActivityRatio: 0.1}}); err == nil {
		t.Error("bad power config should fail")
	}
}

func TestMAXSavesEnergyOnImbalance(t *testing.T) {
	res := runMAX(t, imbalancedTrace(3), dvfs.ContinuousUnlimited())
	if res.Norm.Energy >= 1 {
		t.Errorf("normalized energy = %v, want < 1", res.Norm.Energy)
	}
	// LB of 1.0/0.25×3 loads: mean/max = 0.4375.
	if math.Abs(res.LB-0.4375) > 1e-9 {
		t.Errorf("LB = %v, want 0.4375", res.LB)
	}
	// The most loaded rank keeps fmax; others drop.
	if math.Abs(res.Assignment.Gears[0].Freq-dvfs.FMax) > 1e-9 {
		t.Errorf("rank 0 gear = %v", res.Assignment.Gears[0])
	}
	for r := 1; r < 4; r++ {
		if res.Assignment.Gears[r].Freq >= dvfs.FMax {
			t.Errorf("rank %d gear = %v, want below fmax", r, res.Assignment.Gears[r])
		}
	}
	// Execution time barely changes (communication-free critical path).
	if res.Norm.Time > 1.02 {
		t.Errorf("normalized time = %v, want <= 1.02", res.Norm.Time)
	}
}

func TestBalancedTraceSavesNothing(t *testing.T) {
	tr := trace.New("balanced", 4)
	for it := 0; it < 3; it++ {
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Compute(1), trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	six, _ := dvfs.Uniform(6)
	res := runMAX(t, tr, six)
	if math.Abs(res.Norm.Energy-1) > 1e-9 {
		t.Errorf("perfectly balanced app: normalized energy = %v, want 1", res.Norm.Energy)
	}
	if math.Abs(res.LB-1) > 1e-9 {
		t.Errorf("LB = %v", res.LB)
	}
}

func TestUnlimitedBeatsLimitedOnExtremeImbalance(t *testing.T) {
	// Loads need frequencies below 0.8 GHz: the unlimited continuous set
	// should save more energy than the limited one (paper §5.3.1 for BT-MZ
	// and IS).
	tr := imbalancedTrace(3)
	unl := runMAX(t, tr, dvfs.ContinuousUnlimited())
	lim := runMAX(t, tr, dvfs.ContinuousLimited())
	if unl.Norm.Energy >= lim.Norm.Energy {
		t.Errorf("unlimited %v should beat limited %v", unl.Norm.Energy, lim.Norm.Energy)
	}
}

func TestMoreGearsNeverHurt(t *testing.T) {
	tr := imbalancedTrace(3)
	prev := math.Inf(1)
	for _, n := range []int{2, 3, 4, 6, 8, 10, 15} {
		set, err := dvfs.Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		res := runMAX(t, tr, set)
		if res.Norm.Energy > prev+1e-9 {
			t.Errorf("uniform-%d energy %v worse than smaller set %v", n, res.Norm.Energy, prev)
		}
		prev = res.Norm.Energy
	}
}

func TestAVGReducesTimeVsMAX(t *testing.T) {
	// Single-phase imbalanced app: AVG over-clocks the critical rank, so
	// the execution gets faster than both the original and the MAX run.
	tr := imbalancedTrace(3)
	ocSet, err := dvfs.ContinuousLimited().ScaleMax(1.20)
	if err != nil {
		t.Fatal(err)
	}
	maxRes, avgRes, err := Compare(Config{Trace: tr}, dvfs.ContinuousLimited(), ocSet)
	if err != nil {
		t.Fatal(err)
	}
	if avgRes.Norm.Time >= maxRes.Norm.Time {
		t.Errorf("AVG time %v should beat MAX time %v", avgRes.Norm.Time, maxRes.Norm.Time)
	}
	if avgRes.Norm.Time >= 1 {
		t.Errorf("AVG normalized time = %v, want < 1", avgRes.Norm.Time)
	}
	if avgRes.Assignment.Overclocked == 0 {
		t.Error("AVG should overclock the critical rank")
	}
	if maxRes.Assignment.Overclocked != 0 {
		t.Error("MAX must not overclock")
	}
	// MAX saves at least as much energy as AVG (paper Figure 10).
	if maxRes.Norm.Energy > avgRes.Norm.Energy+1e-9 {
		t.Errorf("MAX energy %v should be <= AVG energy %v", maxRes.Norm.Energy, avgRes.Norm.Energy)
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	res := runMAX(t, imbalancedTrace(2), dvfs.ContinuousUnlimited())
	for _, rs := range []RunStats{res.Orig, res.New} {
		if math.Abs(rs.Breakdown.Total()-rs.Energy) > 1e-9 {
			t.Errorf("breakdown %v != energy %v", rs.Breakdown.Total(), rs.Energy)
		}
		if rs.Time <= 0 || rs.Energy <= 0 {
			t.Errorf("non-positive stats: %+v", rs)
		}
	}
	// Normalized values consistent with absolutes.
	wantNorm := res.New.Energy / res.Orig.Energy
	if math.Abs(res.Norm.Energy-wantNorm) > 1e-12 {
		t.Errorf("norm energy %v, want %v", res.Norm.Energy, wantNorm)
	}
}

func TestTimelinesRecordedOnDemand(t *testing.T) {
	tr := imbalancedTrace(2)
	res, err := Run(Config{Trace: tr, Set: dvfs.ContinuousUnlimited(), Algorithm: core.MAX, RecordTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Orig.Timeline) != 4 || len(res.New.Timeline) != 4 {
		t.Fatal("timelines missing")
	}
	// Default: no timelines.
	res2 := runMAX(t, tr, dvfs.ContinuousUnlimited())
	if res2.Orig.Timeline != nil {
		t.Error("timeline recorded without request")
	}
}

// Integration: a real generated workload end to end, checking the paper's
// headline claim that high imbalance yields large savings.
func TestBTMZEndToEnd(t *testing.T) {
	inst, err := workload.FindInstance("BT-MZ-32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = 5
	cfg.SkipPECalibration = true
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runMAX(t, tr, dvfs.ContinuousUnlimited())
	if math.Abs(res.LB-0.3521) > 0.01 {
		t.Errorf("LB = %v, want ≈0.3521", res.LB)
	}
	// BT-MZ saves on the order of 60% CPU energy in the paper.
	if res.Norm.Energy > 0.55 || res.Norm.Energy < 0.25 {
		t.Errorf("BT-MZ normalized energy = %v, want roughly 0.4±0.15", res.Norm.Energy)
	}
	if res.Norm.Time > 1.05 {
		t.Errorf("BT-MZ normalized time = %v, want ≈1", res.Norm.Time)
	}
}

// TestExplicitBetaZeroHonored is the regression test for the zero-vs-default
// ambiguity: an explicit β = 0 (fully memory-bound) must reach the
// simulator unrewritten instead of being silently replaced by 0.5.
func TestExplicitBetaZeroHonored(t *testing.T) {
	tr := imbalancedTrace(3)
	set, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Trace: tr, Set: set, Algorithm: core.MAX, Beta: betaPtr(0)})
	if err != nil {
		t.Fatal(err)
	}
	// With β = 0 computation time is frequency-insensitive: the DVFS replay
	// must match the original execution bit for bit even though every
	// non-critical rank was down-geared to the set's bottom.
	if res.New.Time != res.Orig.Time {
		t.Errorf("β=0 DVFS time %v != original %v (β was rewritten on the way to the simulator)", res.New.Time, res.Orig.Time)
	}
	for r := 0; r < 4; r++ {
		if res.Assignment.Gears[r].Freq != dvfs.FMin {
			t.Errorf("rank %d gear = %v, want parked at the bottom under β=0", r, res.Assignment.Gears[r])
		}
	}
	if res.New.Energy >= res.Orig.Energy {
		t.Errorf("β=0 down-gearing should still save energy: new %v vs orig %v", res.New.Energy, res.Orig.Energy)
	}

	// A nil Beta keeps its ergonomic meaning: default 0.5, under
	// which the critical rank must keep the top gear (β = 0 parks it at the
	// bottom because computation no longer depends on frequency).
	def, err := Run(Config{Trace: tr, Set: set, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	if def.Assignment.Gears[0].Freq != dvfs.FMax {
		t.Errorf("default-β critical rank gear = %v, want FMax", def.Assignment.Gears[0])
	}
	if def.New.Energy <= res.New.Energy {
		t.Errorf("β=0 run should save more energy than the default-β run: %v vs %v", res.New.Energy, def.New.Energy)
	}

	// Out-of-range explicit betas still fail.
	if _, err := Run(Config{Trace: tr, Set: set, Beta: betaPtr(1.5)}); err == nil {
		t.Error("beta > 1 should fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := imbalancedTrace(1)
	res, err := Run(Config{Trace: tr, Set: dvfs.ContinuousUnlimited()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Algorithm != core.MAX {
		t.Error("zero-value algorithm should be MAX")
	}
	// Default platform is non-trivial: comm time should exist.
	if res.Orig.Time <= 1.0 {
		t.Errorf("orig time = %v, want > max compute", res.Orig.Time)
	}
	_ = dimemas.DefaultPlatform()
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
