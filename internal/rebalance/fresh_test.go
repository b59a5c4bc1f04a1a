package rebalance_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/predict"
	"repro/internal/rebalance"
	"repro/internal/workload"
)

// These cross-checks live in an external test package so they can drive
// RunFresh on the inputs of the layers above rebalance (the experiment
// suite's study) without an import cycle.

// TestRebalancePredictiveExactness pins the rebalance study's exactness
// guarantee for the predictive policy: every iteration of the
// skeleton-retimed run is bit-identical to scoring the same closed loop
// with fresh simulations of each drifted trace (RunFresh) — the forecaster
// sits on top of the replay tier, so it must not perturb the retiming
// equivalence. The configuration restates the study's parameters
// (internal/experiments, rebalance.go).
func TestRebalancePredictiveExactness(t *testing.T) {
	suite := experiments.QuickSuite()
	tr, err := suite.Trace("WRF-128")
	if err != nil {
		t.Fatal(err)
	}
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range experiments.DefaultRebalanceScenarios() {
		cfg := rebalance.Config{
			Trace:            tr,
			Platform:         suite.Platform(),
			Set:              six,
			Beta:             &suite.Beta,
			FMax:             suite.Gen.FMax,
			Iterations:       60,
			Drift:            sc.Drift,
			Policy:           rebalance.PolicyPredictive,
			Predict:          predict.Config{Kind: predict.KindLinear, Window: 12},
			Threshold:        0.01,
			Hysteresis:       2,
			Margin:           0.15,
			ReassignOverhead: 3e-3,
			Cache:            dimemas.NewReplayCache(),
		}
		retimed, err := rebalance.Run(cfg)
		if err != nil {
			t.Fatalf("%s retimed: %v", sc.Name, err)
		}
		cfg.Cache = nil
		fresh, err := rebalance.RunFresh(cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", sc.Name, err)
		}
		if len(retimed.Iterations) != len(fresh.Iterations) {
			t.Fatalf("%s: iteration count %d vs %d", sc.Name, len(retimed.Iterations), len(fresh.Iterations))
		}
		for i := range retimed.Iterations {
			if retimed.Iterations[i] != fresh.Iterations[i] {
				t.Fatalf("%s iteration %d: retimed %+v != fresh %+v", sc.Name, i, retimed.Iterations[i], fresh.Iterations[i])
			}
		}
		if !reflect.DeepEqual(retimed.FinalGears, fresh.FinalGears) {
			t.Errorf("%s: final gears diverge between retimed and fresh scoring", sc.Name)
		}
		if *retimed.Forecast != *fresh.Forecast {
			t.Errorf("%s: forecaster stats diverge: %+v vs %+v", sc.Name, retimed.Forecast, fresh.Forecast)
		}
	}
}

// TestRunFreshPolicyMatrix holds the whole policy × drift matrix of
// the facade's determinism test against RunFresh: a run that re-simulates
// every drifted iteration from scratch is deep-equal to the retimed one,
// on the flat machine and on one whose Efficiency layer stretches every
// rank differently (the "/efficiency" subtests).
func TestRunFreshPolicyMatrix(t *testing.T) {
	inst, err := workload.FindInstance("IS-32")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.DefaultConfig()
	gen.Iterations = 4
	gen.SkipPECalibration = true
	tr, err := workload.Generate(inst, gen)
	if err != nil {
		t.Fatal(err)
	}
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	drifts := []workload.Drift{
		{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 3},
		{Kind: workload.DriftWalk, Magnitude: 0.03, Jitter: 0.02, Seed: 3},
		{Kind: workload.DriftStep, Magnitude: 0.4, Jitter: 0.02, Seed: 3},
	}
	eff := make([]float64, tr.NumRanks())
	for r := range eff {
		eff[r] = 0.6 + 0.025*float64((r*7)%32) // 32 levels in [0.6, 1.4)
	}
	machines := []struct {
		suffix  string
		machine *dimemas.Machine
	}{
		{"", nil},
		{"/efficiency", &dimemas.Machine{Cap: &dimemas.Capability{Efficiency: eff}}},
	}
	cache := dimemas.NewReplayCache()
	policies := []rebalance.Policy{
		rebalance.PolicyNever, rebalance.PolicyEveryK, rebalance.PolicyThreshold,
		rebalance.PolicyCapped, rebalance.PolicyPredictive, rebalance.PolicyPredictiveCapped,
	}
	for _, m := range machines {
		for _, policy := range policies {
			for _, drift := range drifts {
				t.Run(fmt.Sprintf("%s/%s%s", policy, drift.Kind, m.suffix), func(t *testing.T) {
					cfg := rebalance.Config{
						Trace:      tr,
						Machine:    m.machine,
						Set:        six,
						Policy:     policy,
						Iterations: 8,
						Drift:      drift,
						Cache:      cache,
					}
					if policy == rebalance.PolicyCapped || policy == rebalance.PolicyPredictiveCapped {
						cfg.Cap = 2000
					}
					if policy == rebalance.PolicyEveryK {
						cfg.Period = 3
					}
					retimed, err := rebalance.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Cache = nil
					fresh, err := rebalance.RunFresh(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(retimed, fresh) {
						t.Fatalf("fresh-replay run diverges from the retimed run:\n%+v\nvs\n%+v", retimed, fresh)
					}
				})
			}
		}
	}
}
