package rebalance

import (
	"repro/internal/dimemas"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// RunFresh is Run with every iteration scored by fresh
// dimemas.SimulateMachine calls over a newly built drifted trace instead of
// skeleton retimings: the reference the equivalence tests and
// BenchmarkRebalanceWRF128Fresh hold the production path against. Results
// must agree bit for bit. Capped re-solves still schedule through
// powercap.Run, whose own RunFresh tests cover their input.
func RunFresh(cfg Config) (*Result, error) {
	res, err := run(cfg, newFreshReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Rebalance, err)
	}
	return res, nil
}

// freshReplayer rebuilds and simulates every drifted iteration.
type freshReplayer struct {
	base    *trace.Trace
	machine dimemas.Machine
	opts    dimemas.Options
}

func newFreshReplayer(_ *Config, base *trace.Trace, machine dimemas.Machine, opts dimemas.Options) (replayer, error) {
	return &freshReplayer{base: base, machine: machine, opts: opts}, nil
}

func (f *freshReplayer) replay(freqs, scale []float64, timeline bool) (exec, ref *dimemas.Result, err error) {
	drifted := f.base.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
	opts := f.opts
	opts.Freqs, opts.RecordTimeline = freqs, timeline
	exec, err = dimemas.SimulateMachine(drifted, f.machine, opts)
	if err != nil {
		return nil, nil, err
	}
	opts.Freqs, opts.RecordTimeline = nil, false
	ref, err = dimemas.SimulateMachine(drifted, f.machine, opts)
	if err != nil {
		return nil, nil, err
	}
	return exec, ref, nil
}
