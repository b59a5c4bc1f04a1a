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
	res, _, err := run(cfg, newFreshReplayer)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Powercap, err)
	}
	return res, nil
}

// ReclaimStats counts how slack reclamation's downshift probes resolved in
// one run: certified slower by the slack table without a replay (Screened),
// replayed and rejected (Walked), or replayed and committed (Accepted).
type ReclaimStats struct {
	Screened, Walked, Accepted int
}

// RunReclaimStats is Run that also reports its slack-reclamation counts.
func RunReclaimStats(cfg Config) (*Result, ReclaimStats, error) {
	res, st, err := run(cfg, newSkeletonReplayer)
	if err != nil {
		return nil, ReclaimStats{}, stagerr.Wrap(stagerr.Powercap, err)
	}
	return res, ReclaimStats{Screened: st.screened, Walked: st.walked, Accepted: st.accepted}, nil
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

// slack certifies nothing: RunFresh scores every probe, so it is the
// unscreened reference for the production path's slack screen.
func (f *freshReplayer) slack([]float64) (*dimemas.SlackTable, error) { return nil, nil }

func (f *freshReplayer) timeline(freqs []float64) (*dimemas.Result, error) {
	opts := f.opts
	opts.Freqs, opts.RecordTimeline = freqs, true
	return dimemas.SimulateMachine(f.tr, f.machine, opts)
}
