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
// must agree bit for bit. The base-iteration skeleton is still recorded,
// once per run: capped re-solves schedule on it through
// powercap.Reschedule, which FuzzSlackCertificate holds against powercap.Run
// on the scaled trace.
func RunFresh(cfg Config) (*Result, error) {
	res, err := run(cfg, newFreshReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Rebalance, err)
	}
	return res, nil
}

// freshReplayer rebuilds and simulates every drifted iteration. A machine
// skeleton rounds each burst as (d·(1/e))·drift, so the reference stretches
// the base iteration by the machine's efficiency once, applies the drift
// on top, and simulates on the machine without its Efficiency layer
// (dimemas.BuildSkeletonMachine).
type freshReplayer struct {
	stretched *trace.Trace    // the base iteration with the efficiency stretch applied
	flat      dimemas.Machine // the machine without its Efficiency layer
	opts      dimemas.Options
}

func newFreshReplayer(_ *dimemas.Skeleton, base *trace.Trace, machine dimemas.Machine, opts dimemas.Options) replayer {
	f := &freshReplayer{stretched: base, flat: machine, opts: opts}
	if eff := machine.ScaleVector(); eff != nil {
		f.stretched = base.ScaleCompute(func(r int, _ trace.Record) float64 { return eff[r] })
	}
	if machine.Cap != nil {
		c := *machine.Cap
		c.Efficiency = nil
		f.flat.Cap = &c
	}
	return f
}

func (f *freshReplayer) replay(freqs, scale []float64, timeline bool) (exec, ref *dimemas.Result, err error) {
	drifted := f.stretched.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
	opts := f.opts
	opts.Freqs, opts.RecordTimeline = freqs, timeline
	exec, err = dimemas.SimulateMachine(drifted, f.flat, opts)
	if err != nil {
		return nil, nil, err
	}
	opts.Freqs, opts.RecordTimeline = nil, false
	ref, err = dimemas.SimulateMachine(drifted, f.flat, opts)
	if err != nil {
		return nil, nil, err
	}
	return exec, ref, nil
}
