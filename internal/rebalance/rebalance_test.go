package rebalance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace generates a small calibrated instance once per test binary.
var testTraces = map[string]*trace.Trace{}

func genTrace(t testing.TB, name string, iters int) *trace.Trace {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, iters)
	if tr, ok := testTraces[key]; ok {
		return tr
	}
	inst, err := workload.FindInstance(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = iters
	cfg.SkipPECalibration = true
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testTraces[key] = tr
	return tr
}

func sixGears(t testing.TB) *dvfs.Set {
	t.Helper()
	set, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestNeverPolicyZeroDriftMatchesAnalysis is the golden degeneration check:
// with static loads and the never-rebalance policy, the closed loop is the
// one-shot offline pipeline run iteration by iteration — the profiling
// iteration must reproduce analysis.Run's original execution bit for bit,
// and every later iteration its DVFS execution, with the identical gear
// assignment.
func TestNeverPolicyZeroDriftMatchesAnalysis(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	set := sixGears(t)
	base, err := tr.Slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.MAX, core.AVG} {
		a, err := analysis.Run(analysis.Config{
			Trace:     base,
			Set:       set,
			Algorithm: alg,
			Cache:     dimemas.NewReplayCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		const iters = 6
		res, err := Run(Config{
			Trace:      tr,
			Set:        set,
			Algorithm:  alg,
			Policy:     PolicyNever,
			Iterations: iters,
			Cache:      dimemas.NewReplayCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iterations) != iters {
			t.Fatalf("%v: %d iterations, want %d", alg, len(res.Iterations), iters)
		}
		if res.Iterations[0].Time != a.Orig.Time || res.Iterations[0].Energy != a.Orig.Energy {
			t.Errorf("%v: profiling iteration (%v, %v) differs from analysis original (%v, %v)",
				alg, res.Iterations[0].Time, res.Iterations[0].Energy, a.Orig.Time, a.Orig.Energy)
		}
		for i := 1; i < iters; i++ {
			if res.Iterations[i].Time != a.New.Time || res.Iterations[i].Energy != a.New.Energy {
				t.Errorf("%v: iteration %d (%v, %v) differs from analysis DVFS run (%v, %v)",
					alg, i, res.Iterations[i].Time, res.Iterations[i].Energy, a.New.Time, a.New.Energy)
			}
		}
		if len(res.FinalGears) != len(a.Assignment.Gears) {
			t.Fatalf("%v: %d final gears, want %d", alg, len(res.FinalGears), len(a.Assignment.Gears))
		}
		for r := range res.FinalGears {
			if res.FinalGears[r] != a.Assignment.Gears[r] {
				t.Errorf("%v: rank %d gear %v differs from analysis assignment %v",
					alg, r, res.FinalGears[r], a.Assignment.Gears[r])
			}
		}
		if res.Reassignments != 1 {
			t.Errorf("%v: %d reassignments, want exactly 1 (the initial assignment)", alg, res.Reassignments)
		}
		for i := 2; i < iters; i++ {
			if res.Iterations[i].Rebalanced {
				t.Errorf("%v: iteration %d rebalanced under the never policy", alg, i)
			}
		}
	}
}

// TestRunFreshBitIdentical proves the skeleton-retiming loop exact: the
// same drifting run scored by fresh Simulate calls over rebuilt drifted
// traces (RunFresh) produces the identical series, bit for bit.
func TestRunFreshBitIdentical(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	set := sixGears(t)
	for _, policy := range []Policy{PolicyNever, PolicyEveryK, PolicyThreshold} {
		cfg := Config{
			Trace:            tr,
			Set:              set,
			Policy:           policy,
			Iterations:       10,
			Drift:            workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.03, Seed: 5},
			ReassignOverhead: 200e-6,
			Cache:            dimemas.NewReplayCache(),
		}
		cached, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		cfg.Cache = nil
		fresh, err := RunFresh(cfg)
		if err != nil {
			t.Fatalf("%v fresh: %v", policy, err)
		}
		if len(cached.Iterations) != len(fresh.Iterations) {
			t.Fatalf("%v: series lengths differ: %d vs %d", policy, len(cached.Iterations), len(fresh.Iterations))
		}
		for i := range cached.Iterations {
			if cached.Iterations[i] != fresh.Iterations[i] {
				t.Errorf("%v: iteration %d differs:\n cached: %+v\n fresh:  %+v",
					policy, i, cached.Iterations[i], fresh.Iterations[i])
			}
		}
		if cached.TotalTime != fresh.TotalTime || cached.TotalEnergy != fresh.TotalEnergy {
			t.Errorf("%v: totals differ: (%v, %v) vs (%v, %v)",
				policy, cached.TotalTime, cached.TotalEnergy, fresh.TotalTime, fresh.TotalEnergy)
		}
		if cached.Reassignments != fresh.Reassignments || cached.GearSwitches != fresh.GearSwitches {
			t.Errorf("%v: convergence metrics differ: (%d, %d) vs (%d, %d)",
				policy, cached.Reassignments, cached.GearSwitches, fresh.Reassignments, fresh.GearSwitches)
		}
		for r := range cached.FinalGears {
			if cached.FinalGears[r] != fresh.FinalGears[r] {
				t.Errorf("%v: final gear %d differs: %v vs %v", policy, r, cached.FinalGears[r], fresh.FinalGears[r])
			}
		}
	}
}

// TestDeterministicSeries: the same seeded config produces the identical
// series on every run.
func TestDeterministicSeries(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	cfg := Config{
		Trace:      tr,
		Set:        sixGears(t),
		Policy:     PolicyThreshold,
		Iterations: 12,
		Drift:      workload.Drift{Kind: workload.DriftWalk, Magnitude: 0.06, Jitter: 0.02, Seed: 9},
		Cache:      dimemas.NewReplayCache(),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Iterations {
		if a.Iterations[i] != b.Iterations[i] {
			t.Fatalf("iteration %d differs across identical runs: %+v vs %+v", i, a.Iterations[i], b.Iterations[i])
		}
	}
	if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy ||
		a.Reassignments != b.Reassignments || a.GearSwitches != b.GearSwitches {
		t.Fatalf("summary differs across identical runs: %+v vs %+v", a, b)
	}
}

// TestCappedPolicyHonorsCap: under drift, every iteration's exact profile
// peak stays within the budget — including the cold-start iteration, which
// runs before the first observation.
func TestCappedPolicyHonorsCap(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	set := sixGears(t)
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cap := 0.6 * float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(dvfs.FMax))
	res, err := Run(Config{
		Trace:      tr,
		Set:        set,
		Policy:     PolicyCapped,
		Cap:        cap,
		Iterations: 12,
		Drift:      workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.5, Jitter: 0.02, Seed: 4},
		ExactPeaks: true,
		Cache:      dimemas.NewReplayCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Iterations {
		if it.PeakPower > cap {
			t.Errorf("iteration %d: peak %v exceeds cap %v", i, it.PeakPower, cap)
		}
	}
	if res.PeakPower > cap {
		t.Errorf("run peak %v exceeds cap %v", res.PeakPower, cap)
	}
	if res.Reassignments == 0 {
		t.Error("capped policy never redistributed the budget")
	}
	// An infeasible cap fails loudly.
	if _, err := Run(Config{
		Trace:  tr,
		Set:    set,
		Policy: PolicyCapped,
		Cap:    1e-6,
		Cache:  dimemas.NewReplayCache(),
	}); err == nil {
		t.Error("infeasible cap accepted")
	}
}

// TestThresholdTriggering: static loads never re-trigger after the initial
// assignment; strong drift does, but less often than the every-iteration
// policy pays.
func TestThresholdTriggering(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	set := sixGears(t)
	static, err := Run(Config{
		Trace:      tr,
		Set:        set,
		Policy:     PolicyThreshold,
		Iterations: 10,
		Cache:      dimemas.NewReplayCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if static.Reassignments != 1 {
		t.Errorf("static loads: %d reassignments, want 1 (initial only)", static.Reassignments)
	}
	drift := workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.5, Jitter: 0.02, Seed: 6}
	thresh, err := Run(Config{
		Trace:      tr,
		Set:        set,
		Policy:     PolicyThreshold,
		Iterations: 20,
		Drift:      drift,
		Cache:      dimemas.NewReplayCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	always, err := Run(Config{
		Trace:      tr,
		Set:        set,
		Policy:     PolicyEveryK,
		Iterations: 20,
		Drift:      drift,
		Cache:      dimemas.NewReplayCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if thresh.Reassignments < 2 {
		t.Errorf("strong drift triggered only %d reassignments", thresh.Reassignments)
	}
	if thresh.Reassignments >= always.Reassignments {
		t.Errorf("threshold reassigned %d times, not fewer than every-iteration's %d",
			thresh.Reassignments, always.Reassignments)
	}
	if thresh.MinLB <= 0 || thresh.MinLB > thresh.MeanLB || thresh.MeanLB > 1 {
		t.Errorf("implausible balance summary: min %v mean %v", thresh.MinLB, thresh.MeanLB)
	}
}

// TestContextCancellation: a dead context stops the loop with its error.
func TestContextCancellation(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{
		Trace:      tr,
		Set:        sixGears(t),
		Iterations: 50,
		Ctx:        ctx,
		Cache:      dimemas.NewReplayCache(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	set := sixGears(t)
	good := func() Config {
		return Config{Trace: tr, Set: set, Iterations: 2}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"nil set", func(c *Config) { c.Set = nil }},
		{"beta out of range", func(c *Config) { c.Beta = betaPtr(1.5) }},
		{"NaN beta", func(c *Config) { c.Beta = betaPtr(math.NaN()) }},
		{"negative fmax", func(c *Config) { c.FMax = -1 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"unknown policy", func(c *Config) { c.Policy = Policy(9) }},
		{"negative period", func(c *Config) { c.Period = -2 }},
		{"threshold out of range", func(c *Config) { c.Threshold = 1.5 }},
		{"negative hysteresis", func(c *Config) { c.Hysteresis = -1 }},
		{"cap without capped policy", func(c *Config) { c.Cap = 100 }},
		{"capped without cap", func(c *Config) { c.Policy = PolicyCapped }},
		{"capped with continuous set", func(c *Config) { c.Policy = PolicyCapped; c.Cap = 100; c.Set = dvfs.ContinuousLimited() }},
		{"negative overhead", func(c *Config) { c.ReassignOverhead = -1 }},
		{"margin out of range", func(c *Config) { c.Margin = 1 }},
		{"bad drift", func(c *Config) { c.Drift = workload.Drift{Kind: workload.DriftRamp, Magnitude: 2} }},
	}
	for _, tc := range cases {
		cfg := good()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// A trace without iteration markers is rejected.
	bare := trace.New("bare", 2)
	bare.Add(0, trace.Compute(0.01))
	bare.Add(1, trace.Compute(0.01))
	if _, err := Run(Config{Trace: bare, Set: set}); !errors.Is(err, ErrNoIterations) {
		t.Errorf("marker-free trace: got %v, want ErrNoIterations", err)
	}
}

// TestParsePolicy round-trips every valid policy through String/ParsePolicy
// using the count-derived bound, so a policy added above policyCount is
// covered by construction — a hand-written `p <= PolicyCapped` loop here
// silently stopped covering new variants once before.
func TestParsePolicy(t *testing.T) {
	seen := map[string]bool{}
	for p := PolicyNever; p <= maxPolicy; p++ {
		s := p.String()
		if strings.HasPrefix(s, "Policy(") {
			t.Fatalf("policy %d has no wire name", int(p))
		}
		if seen[s] {
			t.Fatalf("duplicate wire name %q", s)
		}
		seen[s] = true
		got, err := ParsePolicy(s)
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if names := PolicyNames(); len(names) != int(policyCount) {
		t.Errorf("PolicyNames lists %d names, want %d", len(names), int(policyCount))
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("unknown policy name accepted")
	}
	if _, err := ParsePolicy(Policy(policyCount).String()); err == nil {
		t.Error("out-of-range formatted name accepted")
	}
}

// TestSkeletonSharedAcrossRuns: repeated runs over the same parent trace hit
// the memoized base-iteration skeleton instead of rebuilding it.
func TestSkeletonSharedAcrossRuns(t *testing.T) {
	tr := genTrace(t, "IS-32", 3)
	cache := dimemas.NewReplayCache()
	cfg := Config{Trace: tr, Set: sixGears(t), Iterations: 4, Cache: cache}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != misses {
		t.Errorf("second run added %d skeleton misses, want 0", st.Misses-misses)
	}
}

// TestCappedRunRecordsOneSkeleton: a capped run re-solves on the
// base-iteration skeleton it already holds, so however often it re-solves,
// it records exactly one skeleton. The registry's rate is so large that
// the point only counts crossings; the registry is process-global, so this
// test must not run in parallel.
func TestCappedRunRecordsOneSkeleton(t *testing.T) {
	tr := genTrace(t, "WRF-128", 2)
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(1, map[faults.Point]uint64{faults.SkeletonBuild: math.MaxUint64})
	faults.Enable(reg)
	t.Cleanup(faults.Disable)
	res, err := Run(Config{
		Trace:      tr,
		Set:        sixGears(t),
		Policy:     PolicyCapped,
		Cap:        0.7 * float64(tr.NumRanks()) * pm.Power(power.Compute, dvfs.GearAt(dvfs.FMax)),
		Iterations: 20,
		Drift:      workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.5, Jitter: 0.02, Seed: 41},
		ExactPeaks: true,
		Cache:      dimemas.NewReplayCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassignments == 0 {
		t.Fatal("the capped run never re-solved to new gears; the check is vacuous")
	}
	st := reg.Stats()[faults.SkeletonBuild]
	if st.Checks != 1 || st.Fired != 0 {
		t.Errorf("capped run with %d reassignments crossed the skeleton build %d times (%d fired), want once",
			res.Reassignments, st.Checks, st.Fired)
	}
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
