package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// quickConfig keeps unit-test generation fast.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Iterations = 5
	return cfg
}

func TestTable3Instances(t *testing.T) {
	insts := Table3()
	if len(insts) != 12 {
		t.Fatalf("Table3 has %d instances, want 12", len(insts))
	}
	names := map[string]bool{}
	for _, inst := range insts {
		if err := inst.Validate(); err != nil {
			t.Errorf("%s: %v", inst.Name, err)
		}
		if names[inst.Name] {
			t.Errorf("duplicate instance %s", inst.Name)
		}
		names[inst.Name] = true
		if inst.TargetPE > inst.TargetLB {
			t.Errorf("%s: PE %v exceeds LB %v", inst.Name, inst.TargetPE, inst.TargetLB)
		}
	}
	// Spot-check paper values.
	bt, err := FindInstance("BT-MZ-32")
	if err != nil || bt.TargetLB != 0.3521 || bt.TargetPE != 0.3507 {
		t.Errorf("BT-MZ-32 = %+v, err %v", bt, err)
	}
	if _, err := FindInstance("NOPE-1"); err == nil {
		t.Error("unknown instance should fail")
	}
}

func TestInstanceForInterpolation(t *testing.T) {
	// At an anchor the interpolation must return the anchor values.
	cg32, err := InstanceFor("CG", 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg32.TargetLB-0.9782) > 1e-9 {
		t.Errorf("CG-32 LB = %v", cg32.TargetLB)
	}
	// Between anchors: CG-48 should be between the 32 and 64 values.
	cg48, err := InstanceFor("CG", 48)
	if err != nil {
		t.Fatal(err)
	}
	if cg48.TargetLB >= 0.9782 || cg48.TargetLB <= 0.9346 {
		t.Errorf("CG-48 LB = %v not between anchors", cg48.TargetLB)
	}
	// Single-anchor app drifts with the default slope.
	bt64, err := InstanceFor("BT-MZ", 64)
	if err != nil {
		t.Fatal(err)
	}
	if bt64.TargetLB >= 0.3521 {
		t.Errorf("BT-MZ-64 LB = %v should drop below the 32-rank anchor", bt64.TargetLB)
	}
	if err := bt64.Validate(); err != nil {
		t.Errorf("interpolated instance invalid: %v", err)
	}
	if _, err := InstanceFor("NOPE", 32); err == nil {
		t.Error("unknown app should fail")
	}
	if _, err := InstanceFor("CG", 1); err == nil {
		t.Error("1 process should fail")
	}
}

// TestInstanceForMatchesGenerate requires InstanceFor to accept a process
// count exactly when Generate can build the instance, for every application
// at 2–40 ranks, and its rejections to carry the package prefix once.
func TestInstanceForMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 2
	rejected := 0
	for _, app := range Apps() {
		for n := 2; n <= 40; n++ {
			inst, instErr := InstanceFor(app, n)
			if instErr != nil {
				rejected++
				if got := strings.Count(instErr.Error(), "workload:"); got != 1 {
					t.Errorf("%s-%d: error %q carries the workload: prefix %d times", app, n, instErr, got)
				}
				// Generate must refuse the instance InstanceFor refused.
				var err error
				if inst, err = Interpolate(app, n); err != nil {
					t.Fatal(err)
				}
			}
			_, genErr := Generate(inst, cfg)
			if (instErr == nil) != (genErr == nil) {
				t.Errorf("%s-%d: InstanceFor error %v, Generate error %v", app, n, instErr, genErr)
			}
		}
	}
	if rejected == 0 {
		t.Error("no count rejected: the check no longer reaches an unbuildable shape")
	}
}

func TestCalibrateLB(t *testing.T) {
	raw := []float64{1, 0.9, 0.8, 0.7, 0.2}
	for _, target := range []float64{0.9, 0.72, 0.5, 0.35} {
		x, err := calibrateLB(raw, target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		got := stats.Mean(x) / stats.Max(x)
		if math.Abs(got-target) > 1e-9 {
			t.Errorf("target %v: achieved %v", target, got)
		}
		if !stats.AllPositive(x) {
			t.Errorf("target %v: non-positive loads %v", target, x)
		}
		if math.Abs(stats.Max(x)-1) > 1e-9 {
			t.Errorf("target %v: max %v, want 1", target, stats.Max(x))
		}
	}
}

func TestCalibrateLBErrors(t *testing.T) {
	if _, err := calibrateLB(nil, 0.5); err == nil {
		t.Error("empty loads should fail")
	}
	if _, err := calibrateLB([]float64{1, 1}, 0); err == nil {
		t.Error("target 0 should fail")
	}
	if _, err := calibrateLB([]float64{1, 1}, 1.5); err == nil {
		t.Error("target > 1 should fail")
	}
	if _, err := calibrateLB([]float64{0, 0}, 0.5); err == nil {
		t.Error("all-zero loads should fail")
	}
	if _, err := calibrateLB([]float64{1, -1}, 0.5); err == nil {
		t.Error("negative load should fail")
	}
	// No spread: impossible to reach imbalance.
	if _, err := calibrateLB([]float64{1, 1, 1}, 0.5); err == nil {
		t.Error("equal loads cannot reach LB 0.5")
	}
	// Target 1 with unequal loads is trivially satisfiable (all equal).
	x, err := calibrateLB([]float64{1, 0.5}, 1)
	if err != nil || x[0] != 1 || x[1] != 1 {
		t.Errorf("target 1: %v, %v", x, err)
	}
}

func TestGeneratedLoadBalanceExact(t *testing.T) {
	// Without PE calibration, load balance must already match exactly
	// (it is calibrated by construction, not by simulation).
	cfg := quickConfig()
	cfg.SkipPECalibration = true
	for _, inst := range Table3() {
		tr, err := Generate(inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		lb, err := metrics.LoadBalance(tr.ComputeTimes())
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		tolerance := 1e-6
		if inst.App == "PEPC" {
			tolerance = 5e-3 // bisected, not closed-form
		}
		if math.Abs(lb-inst.TargetLB) > tolerance {
			t.Errorf("%s: LB = %.6f, want %.6f", inst.Name, lb, inst.TargetLB)
		}
	}
}

func TestGeneratedTracesValid(t *testing.T) {
	cfg := quickConfig()
	cfg.SkipPECalibration = true
	for _, inst := range Table3() {
		tr, err := Generate(inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", inst.Name, err)
		}
		if tr.NumRanks() != inst.NProcs {
			t.Errorf("%s: %d ranks, want %d", inst.Name, tr.NumRanks(), inst.NProcs)
		}
		if tr.Iterations() != cfg.Iterations {
			t.Errorf("%s: %d iterations, want %d", inst.Name, tr.Iterations(), cfg.Iterations)
		}
	}
}

func TestGeneratedTracesReplayable(t *testing.T) {
	cfg := quickConfig()
	cfg.SkipPECalibration = true
	for _, inst := range Table3() {
		tr, err := Generate(inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		ch, err := Measure(tr, cfg.Platform, cfg.FMax)
		if err != nil {
			t.Fatalf("%s: replay failed: %v", inst.Name, err)
		}
		if ch.Time <= 0 || ch.PE <= 0 || ch.PE > 1 {
			t.Errorf("%s: characteristics %+v", inst.Name, ch)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickConfig()
	cfg.SkipPECalibration = true
	inst, _ := FindInstance("IS-32")
	t1, err := Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := t1.ComputeTimes(), t2.ComputeTimes()
	for r := range c1 {
		if c1[r] != c2[r] {
			t.Fatalf("rank %d compute differs between generations", r)
		}
	}
}

// The key calibration test: full generation must land both LB and PE close
// to Table 3. A couple of representative instances keep the test fast; the
// integration suite covers all twelve.
func TestPECalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration bisection in short mode")
	}
	cfg := quickConfig()
	for _, name := range []string{"BT-MZ-32", "IS-32", "CG-64", "PEPC-128"} {
		inst, err := FindInstance(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Generate(inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ch, err := Measure(tr, cfg.Platform, cfg.FMax)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(ch.LB-inst.TargetLB) > 0.006 {
			t.Errorf("%s: LB = %.4f, want %.4f", name, ch.LB, inst.TargetLB)
		}
		if math.Abs(ch.PE-inst.TargetPE) > 0.01 {
			t.Errorf("%s: PE = %.4f, want %.4f", name, ch.PE, inst.TargetPE)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	inst, _ := FindInstance("CG-32")
	bad := quickConfig()
	bad.Iterations = 0
	if _, err := Generate(inst, bad); err == nil {
		t.Error("zero iterations should fail")
	}
	bad = quickConfig()
	bad.BaseCompute = 0
	if _, err := Generate(inst, bad); err == nil {
		t.Error("zero base compute should fail")
	}
	bad = quickConfig()
	bad.FMax = -1
	if _, err := Generate(inst, bad); err == nil {
		t.Error("negative fmax should fail")
	}
	bad = quickConfig()
	bad.Platform = dimemas.Platform{Bandwidth: -5}
	if _, err := Generate(inst, bad); err == nil {
		t.Error("bad platform should fail")
	}
	if _, err := Generate(Instance{Name: "X-4", App: "X", NProcs: 4, TargetLB: 0.5, TargetPE: 0.4}, quickConfig()); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestGridDims(t *testing.T) {
	tests := []struct{ n, nx, ny int }{
		{32, 4, 8}, {64, 8, 8}, {96, 8, 12}, {128, 8, 16}, {7, 1, 7}, {12, 3, 4},
	}
	for _, tt := range tests {
		nx, ny := gridDims(tt.n)
		if nx*ny != tt.n {
			t.Errorf("gridDims(%d) = %d×%d", tt.n, nx, ny)
		}
		if nx != tt.nx || ny != tt.ny {
			t.Errorf("gridDims(%d) = %d×%d, want %d×%d", tt.n, nx, ny, tt.nx, tt.ny)
		}
	}
}

func TestPEPCHasTwoAntiCorrelatedPhases(t *testing.T) {
	inst, _ := FindInstance("PEPC-128")
	cfg := quickConfig()
	cfg.SkipPECalibration = true
	p, err := newPlan(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.phases) != 2 {
		t.Fatalf("PEPC has %d phases, want 2", len(p.phases))
	}
	a, b := p.phases[0], p.phases[1]
	// Anti-correlation: the rank with the largest tree phase should not also
	// have the largest force phase.
	if stats.ArgMax(a) == stats.ArgMax(b) {
		t.Error("phases are not anti-correlated")
	}
	// Per-phase imbalance must be worse than the total imbalance: that is
	// what makes a single per-process frequency setting inadequate.
	tot := make([]float64, len(a))
	for i := range a {
		tot[i] = a[i] + b[i]
	}
	lbA := stats.Mean(a) / stats.Max(a)
	lbTot := stats.Mean(tot) / stats.Max(tot)
	if lbA >= lbTot {
		t.Errorf("phase A balance %.3f should be worse than total %.3f", lbA, lbTot)
	}
}

// TestInterpolateTable3Rows pins that a Table 3 (app, count) pair resolves
// to the Table 3 instance itself: interpolating at an anchor would move
// BT-MZ-32's and SPECFEM3D-32's PE targets through the headroom clamp.
func TestInterpolateTable3Rows(t *testing.T) {
	for _, want := range Table3() {
		got, err := Interpolate(want.App, want.NProcs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Interpolate(%s, %d) = %+v, want the Table 3 row %+v", want.App, want.NProcs, got, want)
		}
	}
}
