package gearopt

import (
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchSearcher(b *testing.B) (*searcher, []float64) {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Iterations = 4
	cfg.SkipPECalibration = true
	inst, err := workload.FindInstance("BT-MZ-32")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := Config{Traces: []*trace.Trace{tr}, NGears: 6, Cache: dimemas.NewReplayCache()}
	if err := scfg.normalize(); err != nil {
		b.Fatal(err)
	}
	opts, err := dimemas.ModelOptions(scfg.Beta, scfg.FMax)
	if err != nil {
		b.Fatal(err)
	}
	s, err := newSearcher(scfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	freqs := make([]float64, scfg.NGears)
	step := (opts.FMax - dvfs.FMin) / float64(scfg.NGears-1)
	for i := range freqs {
		freqs[i] = dvfs.FMin + float64(i)*step
	}
	freqs[scfg.NGears-1] = opts.FMax
	return s, freqs
}

// BenchmarkGearoptObjective measures one candidate evaluation of the
// coordinate-descent search — the operation the optimizer performs
// thousands of times per run. Since the objective now retimes the exact
// replay (no original-time approximation), this is also the cost of one
// exact what-if answer per application. Re-evaluating an unchanged vector
// is a delta memo hit, so this is the steady-state floor;
// BenchmarkGearoptObjectiveLattice exercises a changing stream.
func BenchmarkGearoptObjective(b *testing.B) {
	s, freqs := benchSearcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.objective(freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGearoptObjectiveLattice evaluates the exact lattice the first
// coordinate-descent round scans off the uniform ladder — consecutive
// candidates move one gear, the neighborhood shape the optimizer's inner
// loop actually produces.
func BenchmarkGearoptObjectiveLattice(b *testing.B) {
	s, freqs := benchSearcher(b)
	grid := s.cfg.Grid
	var cands [][]float64
	for i := 0; i < len(freqs)-1; i++ {
		lo := dvfs.FMin / 2
		if i > 0 {
			lo = freqs[i-1] + grid
		}
		hi := freqs[i+1] - grid
		for f := lo; f <= hi+1e-9; f += grid {
			c := append([]float64(nil), freqs...)
			c[i] = f
			cands = append(cands, c)
		}
	}
	if _, err := s.objective(freqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.objective(cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
}
