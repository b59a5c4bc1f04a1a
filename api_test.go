package repro

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func quickWorkloadConfig() WorkloadConfig {
	cfg := DefaultWorkloadConfig()
	cfg.Iterations = 4
	cfg.SkipPECalibration = true
	return cfg
}

func TestFacadeEndToEnd(t *testing.T) {
	tr, err := GenerateWorkload("BT-MZ-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	six, err := UniformGearSet(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(AnalysisConfig{Trace: tr, Set: six, Algorithm: MAX})
	if err != nil {
		t.Fatal(err)
	}
	if res.Norm.Energy >= 0.6 {
		t.Errorf("BT-MZ energy = %v, want big savings", res.Norm.Energy)
	}
}

func TestFacadeGearSets(t *testing.T) {
	if ContinuousUnlimited().Top().Freq != FMax {
		t.Error("unlimited top")
	}
	if ContinuousLimited().Bottom().Freq != FMin {
		t.Error("limited bottom")
	}
	exp, err := ExponentialGearSet(6)
	if err != nil || exp.Size() != 6 {
		t.Errorf("exponential: %v %v", exp, err)
	}
	oc := OverclockGear()
	if oc.Freq != 2.6 || oc.Volt != 1.6 {
		t.Errorf("overclock gear = %v", oc)
	}
}

func TestFacadeCompare(t *testing.T) {
	tr, err := GenerateWorkload("IS-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	six, _ := UniformGearSet(6)
	ocSet, err := six.WithOverclockGear(OverclockGear())
	if err != nil {
		t.Fatal(err)
	}
	maxRes, avgRes, err := CompareAlgorithms(AnalysisConfig{Trace: tr}, six, ocSet)
	if err != nil {
		t.Fatal(err)
	}
	if maxRes.Assignment.Overclocked != 0 {
		t.Error("MAX overclocked")
	}
	if avgRes.Norm.Time > maxRes.Norm.Time+1e-9 {
		t.Errorf("AVG time %v vs MAX %v", avgRes.Norm.Time, maxRes.Norm.Time)
	}
}

func TestFacadeScaledGeneration(t *testing.T) {
	tr, err := GenerateScaled("CG", 16, quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 16 {
		t.Errorf("ranks = %d", tr.NumRanks())
	}
}

func TestFacadeTraceIO(t *testing.T) {
	tr, err := GenerateWorkload("CG-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.ComputeTimes(), back.ComputeTimes()
	for r := range a {
		if math.Abs(a[r]-b[r]) > 1e-9 {
			t.Fatalf("rank %d compute differs after round trip", r)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	exps := AllExperiments()
	if len(exps) < 13 {
		t.Fatalf("%d experiments", len(exps))
	}
	if _, err := ExperimentByID("table1"); err != nil {
		t.Error(err)
	}
	cfg := DefaultWorkloadConfig()
	cfg.Iterations = 4
	suite := NewExperimentSuite(cfg)
	e, err := ExperimentByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(suite, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.30") {
		t.Errorf("table1 output: %s", buf.String())
	}
}

func TestFacadeGantt(t *testing.T) {
	tr, err := GenerateWorkload("BT-MZ-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(AnalysisConfig{
		Trace: tr, Set: ContinuousUnlimited(), Algorithm: MAX, RecordTimelines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderGantt(&buf, res.Orig.Timeline, res.Orig.Time); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Error("gantt output lacks compute cells")
	}
}

func TestApplicationsList(t *testing.T) {
	apps := Applications()
	if len(apps) != 12 {
		t.Fatalf("%d applications", len(apps))
	}
	if apps[0].Name != "BT-MZ-32" {
		t.Errorf("first = %s", apps[0].Name)
	}
}

func TestDefaults(t *testing.T) {
	if DefaultPlatform().Bandwidth <= 0 {
		t.Error("platform")
	}
	if DefaultPowerConfig().ActivityRatio != 1.5 {
		t.Error("power config")
	}
	if DefaultWorkloadConfig().Iterations != 20 {
		t.Error("workload config")
	}
}

func TestFacadePowerCap(t *testing.T) {
	tr, err := GenerateWorkload("BT-MZ-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	six, err := UniformGearSet(6)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPowerModel(DefaultPowerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cap := 0.5 * float64(tr.NumRanks()) * pm.Power(PhaseCompute, GearAtFrequency(FMax))
	res, err := SchedulePowerCap(PowerCapConfig{Trace: tr, Set: six, Cap: cap, Cache: NewReplayCache()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redistributed.PeakPower > cap || res.Uniform.PeakPower > cap {
		t.Errorf("scheduled peaks %v / %v exceed the cap %v", res.Redistributed.PeakPower, res.Uniform.PeakPower, cap)
	}
	if res.Redistributed.Time > res.Uniform.Time {
		t.Errorf("redistribution %v should not lose to uniform %v", res.Redistributed.Time, res.Uniform.Time)
	}

	// The profile facade reconstructs the uncapped reference peak.
	opts := SimOptions{Beta: 0.5, FMax: FMax, RecordTimeline: true}
	sim, err := Simulate(tr, DefaultPlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	gears := make([]Gear, tr.NumRanks())
	for i := range gears {
		gears[i] = GearAtFrequency(FMax)
	}
	profile, err := BuildPowerProfile(pm, sim.Timeline, gears, sim.Time)
	if err != nil {
		t.Fatal(err)
	}
	if profile.Peak() != res.Uncapped.PeakPower {
		t.Errorf("profile peak %v != scheduler's uncapped peak %v", profile.Peak(), res.Uncapped.PeakPower)
	}
	if profile.TimeAbove(profile.Peak()) != 0 {
		t.Error("time above the peak must be zero")
	}
}

func TestFacadeRebalance(t *testing.T) {
	tr, err := GenerateWorkload("IS-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	six, err := UniformGearSet(6)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReplayCache()
	res, err := RunRebalance(RebalanceConfig{
		Trace:      tr,
		Set:        six,
		Policy:     RebalanceThreshold,
		Iterations: 10,
		Drift:      WorkloadDrift{Kind: DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 3},
		Cache:      cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 10 {
		t.Fatalf("%d iterations, want 10", len(res.Iterations))
	}
	if res.Norm.Energy >= 1 {
		t.Errorf("drifting IS-32 rebalancing saved nothing: %v", res.Norm.Energy)
	}
	if res.Reassignments < 1 {
		t.Error("threshold policy never assigned gears")
	}
	// The load-scaled retimer facade: scaling every rank by 1.0 reproduces
	// the plain retiming bit for bit.
	skel, err := BuildTimingSkeleton(tr, DefaultPlatform(), SimOptions{Beta: 0.5, FMax: FMax})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, tr.NumRanks())
	for i := range ones {
		ones[i] = 1
	}
	plain, err := skel.Retime(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := skel.RetimeScaled(nil, ones, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != scaled.Time {
		t.Errorf("all-ones RetimeScaled time %v != Retime time %v", scaled.Time, plain.Time)
	}
}

// TestFacadeRebalanceDeterminism pins the closed loop's reproducibility
// contract across the whole policy × drift matrix: with identical seeds,
// two runs are deep-equal in every reported field. The same matrix is held
// against fresh re-simulation of every drifted iteration by
// TestRunFreshPolicyMatrix in internal/rebalance.
func TestFacadeRebalanceDeterminism(t *testing.T) {
	tr, err := GenerateWorkload("IS-32", quickWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	six, err := UniformGearSet(6)
	if err != nil {
		t.Fatal(err)
	}
	policies := []RebalancePolicy{
		RebalanceNever, RebalanceEveryK, RebalanceThreshold,
		RebalanceCapped, RebalancePredictive, RebalancePredictiveCapped,
	}
	drifts := []WorkloadDrift{
		{Kind: DriftRamp, Magnitude: 0.4, Jitter: 0.02, Seed: 3},
		{Kind: DriftWalk, Magnitude: 0.03, Jitter: 0.02, Seed: 3},
		{Kind: DriftStep, Magnitude: 0.4, Jitter: 0.02, Seed: 3},
	}
	cache := NewReplayCache()
	for _, policy := range policies {
		for _, drift := range drifts {
			t.Run(fmt.Sprintf("%s/%s", policy, drift.Kind), func(t *testing.T) {
				cfg := RebalanceConfig{
					Trace:      tr,
					Set:        six,
					Policy:     policy,
					Iterations: 8,
					Drift:      drift,
					Cache:      cache,
				}
				if policy == RebalanceCapped || policy == RebalancePredictiveCapped {
					cfg.Cap = 2000
				}
				if policy == RebalanceEveryK {
					cfg.Period = 3
				}
				first, err := RunRebalance(cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := RunRebalance(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("two identically seeded runs diverge:\n%+v\nvs\n%+v", first, second)
				}
			})
		}
	}
}
