package jitter

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/dimemas"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// imbalancedTrace: 4 ranks, fixed loads, barrier-synchronized iterations.
func imbalancedTrace(iters int) *trace.Trace {
	tr := trace.New("micro", 4)
	loads := []float64{1.0, 0.4, 0.4, 0.4}
	for it := 0; it < iters; it++ {
		for r, w := range loads {
			tr.Add(r, trace.Compute(w), trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	return tr
}

func TestValidation(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	if _, err := Run(Config{Set: six}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(2)}); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(2), Set: dvfs.ContinuousLimited()}); !errors.Is(err, ErrContinuousSet) {
		t.Errorf("continuous set: %v", err)
	}
	noIter := trace.New("x", 2)
	noIter.Add(0, trace.Compute(1))
	noIter.Add(1, trace.Compute(1))
	if _, err := Run(Config{Trace: noIter, Set: six}); !errors.Is(err, ErrNoIterations) {
		t.Errorf("no iterations: %v", err)
	}
	if _, err := Run(Config{Trace: imbalancedTrace(2), Set: six, Beta: betaPtr(2)}); err == nil {
		t.Error("bad beta should fail")
	}
	if _, err := Run(Config{Trace: imbalancedTrace(2), Set: six, SlackUp: 0.5, SlackDown: 0.1}); err == nil {
		t.Error("SlackUp above SlackDown should fail")
	}
}

func TestJitterConvergesDownOnSlackedRanks(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	res, err := Run(Config{Trace: imbalancedTrace(12), Set: six})
	if err != nil {
		t.Fatal(err)
	}
	// The critical rank keeps the top gear; slacked ranks walk down.
	if res.FinalGears[0].Freq != dvfs.FMax {
		t.Errorf("critical rank gear = %v, want fmax", res.FinalGears[0])
	}
	for r := 1; r < 4; r++ {
		if res.FinalGears[r].Freq >= dvfs.FMax {
			t.Errorf("slacked rank %d still at %v", r, res.FinalGears[r])
		}
	}
	if res.GearSwitches == 0 {
		t.Error("no gear switches recorded")
	}
	if res.Norm.Energy >= 1 {
		t.Errorf("normalized energy %v, want savings", res.Norm.Energy)
	}
}

func TestJitterDoesNotSlowBalancedApps(t *testing.T) {
	tr := trace.New("balanced", 4)
	for it := 0; it < 8; it++ {
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Compute(1), trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	six, _ := dvfs.Uniform(6)
	res, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	if res.Norm.Time > 1.001 {
		t.Errorf("balanced app slowed to %v", res.Norm.Time)
	}
	// No rank should leave the top gear (no slack beyond the threshold).
	for r, g := range res.FinalGears {
		if g.Freq != dvfs.FMax {
			t.Errorf("rank %d moved to %v on a balanced app", r, g)
		}
	}
}

// The headline comparison: the adaptive runtime approaches the static MAX
// assignment (which has perfect knowledge) but needs some iterations to
// converge, so it saves at most as much energy.
func TestJitterApproachesStaticMAX(t *testing.T) {
	inst, err := workload.FindInstance("IS-32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = 15
	cfg.SkipPECalibration = true
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	six, _ := dvfs.Uniform(6)

	dyn, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	static, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Norm.Energy >= 1 {
		t.Errorf("jitter should save on IS-32, got %v", dyn.Norm.Energy)
	}
	// Static MAX profiles the whole run first; the online runtime pays a
	// convergence tax, so it cannot beat MAX by much (tolerance for gear
	// boundary effects).
	if dyn.Norm.Energy < static.Norm.Energy-0.10 {
		t.Errorf("jitter %v suspiciously better than static MAX %v", dyn.Norm.Energy, static.Norm.Energy)
	}
	// ...but it should get within a reasonable band of it.
	if dyn.Norm.Energy > static.Norm.Energy+0.25 {
		t.Errorf("jitter %v too far behind static MAX %v", dyn.Norm.Energy, static.Norm.Energy)
	}
}

func TestEnergyBookkeepingConsistent(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	res, err := Run(Config{Trace: imbalancedTrace(6), Set: six})
	if err != nil {
		t.Fatal(err)
	}
	wantNorm := res.Energy / res.OrigEnergy
	if math.Abs(res.Norm.Energy-wantNorm) > 1e-12 {
		t.Errorf("norm %v vs recomputed %v", res.Norm.Energy, wantNorm)
	}
	if res.Iterations != 6 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.OrigTime <= 0 || res.Time <= 0 {
		t.Error("non-positive times")
	}
}

func TestSlackThresholdsControlAggressiveness(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	tr := imbalancedTrace(10)
	timid, err := Run(Config{Trace: tr, Set: six, SlackDown: 0.70, SlackUp: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(Config{Trace: tr, Set: six, SlackDown: 0.05, SlackUp: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// A very high down-threshold never triggers on 60% slack; the eager
	// configuration saves more.
	if eager.Norm.Energy >= timid.Norm.Energy {
		t.Errorf("eager %v should save more than timid %v", eager.Norm.Energy, timid.Norm.Energy)
	}
}

// TestCachedRunMatchesUncached re-runs the emulation with a shared replay
// cache: results must be bit-identical and each iteration's skeleton must
// be memoized once under its (parent, iteration) key.
func TestCachedRunMatchesUncached(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	tr := imbalancedTrace(8)
	plain, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	cache := dimemas.NewReplayCache()
	for i := 0; i < 2; i++ { // second run consumes the memoized replays
		cached, err := Run(Config{Trace: tr, Set: six, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, cached) {
			t.Fatalf("run %d: cached emulation differs from uncached", i)
		}
	}
	if got := cache.Len(); got != tr.Iterations() {
		t.Errorf("cache holds %d skeletons, want one per iteration (%d)", got, tr.Iterations())
	}
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
