package phased

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// twoPhaseTrace builds an anti-correlated two-phase application: in phase A
// rank 0 is critical, in phase B rank 3 is. Totals are perfectly balanced,
// so a single per-process setting can do nothing — yet each phase wastes
// half its time waiting.
func twoPhaseTrace(iters int) *trace.Trace {
	tr := trace.New("antiphase", 4)
	a := []float64{1.0, 0.5, 0.5, 0.5}
	b := []float64{0.5, 1.0, 1.0, 1.0}
	for it := 0; it < iters; it++ {
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Compute(a[r]), trace.Coll(trace.CollBarrier, 0))
			tr.Add(r, trace.Compute(b[r]), trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	return tr
}

func TestValidation(t *testing.T) {
	six, _ := dvfs.Uniform(6)
	if _, err := Run(Config{Set: six}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Run(Config{Trace: twoPhaseTrace(1)}); err == nil {
		t.Error("nil set should fail")
	}
	empty := trace.New("x", 2)
	empty.Add(0, trace.Coll(trace.CollBarrier, 0))
	empty.Add(1, trace.Coll(trace.CollBarrier, 0))
	if _, err := Run(Config{Trace: empty, Set: six}); !errors.Is(err, ErrNoPhases) {
		t.Errorf("no phases: %v", err)
	}
	if _, err := Run(Config{Trace: twoPhaseTrace(1), Set: six, Beta: betaPtr(3)}); err == nil {
		t.Error("bad beta should fail")
	}
}

func TestDetectsPhases(t *testing.T) {
	res, err := Run(Config{Trace: twoPhaseTrace(3), Set: dvfs.ContinuousUnlimited()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 2 {
		t.Fatalf("phases = %d, want 2", res.Phases)
	}
	// Phase A: rank 0 critical (fmax), others reduced. Phase B mirrored.
	if res.Gears[0][0].Freq != dvfs.FMax {
		t.Errorf("phase A rank 0 = %v", res.Gears[0][0])
	}
	if res.Gears[0][1].Freq >= dvfs.FMax {
		t.Errorf("phase A rank 1 = %v, want reduced", res.Gears[0][1])
	}
	if res.Gears[1][0].Freq >= dvfs.FMax {
		t.Errorf("phase B rank 0 = %v, want reduced", res.Gears[1][0])
	}
	if res.Gears[1][1].Freq != dvfs.FMax {
		t.Errorf("phase B rank 1 = %v", res.Gears[1][1])
	}
}

// On the anti-correlated trace, per-process MAX is blind (totals are
// balanced) while per-phase MAX balances each phase and saves real energy
// at unchanged execution time.
func TestPerPhaseBeatsPerProcessOnAntiCorrelatedPhases(t *testing.T) {
	tr := twoPhaseTrace(3)
	six, _ := dvfs.Uniform(6)

	perProcess, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	perPhase, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	// Per-process: totals are perfectly balanced → every rank at fmax →
	// no savings at all.
	if perProcess.Norm.Energy < 0.999 {
		t.Errorf("per-process energy %v, want ~1 (blind to phases)", perProcess.Norm.Energy)
	}
	// Per-phase: each phase has LB 62.5% → real savings.
	if perPhase.Norm.Energy > 0.90 {
		t.Errorf("per-phase energy %v, want substantial savings", perPhase.Norm.Energy)
	}
	// Critical path preserved within the gear-quantization margin.
	if perPhase.Norm.Time > 1.01 {
		t.Errorf("per-phase time %v, want ~1", perPhase.Norm.Time)
	}
}

// PEPC-128 is the paper's problem child: MAX inflates its execution time.
// Per-phase assignment repairs it.
func TestPerPhaseFixesPEPC(t *testing.T) {
	inst, err := workload.FindInstance("PEPC-128")
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
	six, _ := dvfs.Uniform(6)

	perProcess, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	perPhase, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	if perProcess.Norm.Time < 1.05 {
		t.Fatalf("per-process PEPC time %v: expected the paper's inflation", perProcess.Norm.Time)
	}
	if perPhase.Norm.Time > 1.02 {
		t.Errorf("per-phase PEPC time %v, want ~1", perPhase.Norm.Time)
	}
	if perPhase.Norm.Energy >= 1 {
		t.Errorf("per-phase PEPC energy %v, want savings", perPhase.Norm.Energy)
	}
}

func TestSinglePhaseMatchesPerProcess(t *testing.T) {
	// With one compute phase per iteration, per-phase and per-process MAX
	// are the same algorithm; energies must agree closely (only the comm
	// attribution differs, and with one phase it is identical).
	tr := trace.New("onephase", 4)
	loads := []float64{1.0, 0.3, 0.6, 0.8}
	for it := 0; it < 3; it++ {
		for r := 0; r < 4; r++ {
			tr.Add(r, trace.Compute(loads[r]), trace.Coll(trace.CollBarrier, 0), trace.IterMark())
		}
	}
	six, _ := dvfs.Uniform(6)
	perProcess, err := analysis.Run(analysis.Config{Trace: tr, Set: six, Algorithm: core.MAX})
	if err != nil {
		t.Fatal(err)
	}
	perPhase, err := Run(Config{Trace: tr, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	if perPhase.Phases != 1 {
		t.Fatalf("phases = %d", perPhase.Phases)
	}
	diff := perPhase.Norm.Energy - perProcess.Norm.Energy
	if diff < -1e-9 || diff > 1e-9 {
		t.Errorf("single-phase energies differ: per-phase %v vs per-process %v",
			perPhase.Norm.Energy, perProcess.Norm.Energy)
	}
}

func TestPhaseComputeTimesHelper(t *testing.T) {
	tr := twoPhaseTrace(2)
	phases := tr.PhaseComputeTimes()
	if len(phases) != 2 {
		t.Fatalf("%d phases", len(phases))
	}
	// Two iterations: rank 0 phase A total = 2.0, phase B total = 1.0.
	if phases[0][0] != 2.0 || phases[1][0] != 1.0 {
		t.Errorf("rank 0 phase totals = %v, %v", phases[0][0], phases[1][0])
	}
}

// betaPtr returns an explicit β for a config's optional Beta.
func betaPtr(b float64) *float64 { return &b }
