package powercap

import (
	"repro/internal/dimemas"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// RunFresh is Run with every gear vector scored by a fresh
// dimemas.SimulateMachine call instead of a skeleton retiming: the
// reference the equivalence tests and BenchmarkPowercapSweepSimulate hold
// the production path against. Results must agree bit for bit.
func RunFresh(cfg Config) (*Result, error) {
	res, err := run(cfg, newFreshReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Powercap, err)
	}
	return res, nil
}

// freshReplayer simulates the run's trace from scratch for every vector.
type freshReplayer struct {
	tr      *trace.Trace
	machine dimemas.Machine
	opts    dimemas.Options
}

func newFreshReplayer(cfg *Config, machine dimemas.Machine, opts dimemas.Options) (replayer, error) {
	return &freshReplayer{tr: cfg.Trace, machine: machine, opts: opts}, nil
}

func (f *freshReplayer) probe(freqs []float64) (*dimemas.Result, error) {
	opts := f.opts
	opts.Freqs = freqs
	return dimemas.SimulateMachine(f.tr, f.machine, opts)
}

func (f *freshReplayer) timeline(freqs []float64) (*dimemas.Result, error) {
	opts := f.opts
	opts.Freqs, opts.RecordTimeline = freqs, true
	return dimemas.SimulateMachine(f.tr, f.machine, opts)
}
