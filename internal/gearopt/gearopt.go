// Package gearopt searches for the best placement of a fixed number of
// DVFS gears. The paper asks "which is the most appropriate DVFS gear set
// size and how frequencies should be distributed" and compares uniform
// against exponential spacing by hand; this package answers the question
// constructively with a coordinate-descent search over gear frequencies.
//
// The search objective is the average normalized CPU energy of the MAX
// algorithm over a set of application traces, evaluated *exactly*: every
// candidate is scored by retiming the trace's frequency-independent timing
// skeleton (dimemas.Skeleton), which is bit-identical to a full replay at a
// fraction of the cost. The search result therefore needs no re-scoring —
// Result.SearchEnergy equals the full-replay Result.Energy by construction,
// eliminating the original-time approximation gap.
package gearopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// Config parameterizes a gear-placement search.
type Config struct {
	// Traces are the applications to optimize for.
	Traces []*trace.Trace
	// NGears is the gear count of the searched set (≥ 2). The top gear is
	// pinned at FMax (the critical process must not slow down); all others
	// move on the grid.
	NGears int
	// Platform, Power, Beta, FMax as elsewhere; zero values (nil Beta)
	// take defaults.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine; a zero Base inherits
	// the Platform). The search then profiles and scores on the
	// layered machine: replays resolve its topology, the per-application
	// balancer honors per-rank frequency ceilings, and energy accounting
	// applies per-rank power scales.
	Machine *dimemas.Machine
	Power   power.Config
	Beta    *float64
	FMax    float64
	// Grid is the frequency step of the search lattice (default 0.05 GHz).
	Grid float64
	// MaxRounds bounds the coordinate-descent rounds (default 8).
	MaxRounds int
	// Cache optionally memoizes the baseline replays and timing skeletons:
	// the profiling pass, the search and the final scoring all share the
	// same originals, and callers sweeping several searches over the same
	// traces share them too. Nil means uncached (skeletons are then built
	// once per search).
	Cache *dimemas.ReplayCache
	// Ctx optionally bounds the search: it is polled between candidate
	// evaluations and threaded into the replays, so a cancelled caller
	// stops paying for the remaining lattice points.
	Ctx context.Context
}

// Result reports an optimized gear set.
type Result struct {
	// Set is the optimized gear set.
	Set *dvfs.Set
	// SearchEnergy is the objective value of the optimized set. The
	// objective retimes the exact replay, so it equals Energy.
	SearchEnergy float64
	// Energy and UniformEnergy are full-replay average normalized energies
	// of the optimized set and the uniform set of the same size.
	Energy, UniformEnergy float64
	// Rounds and Evaluations count the search effort.
	Rounds, Evaluations int
}

// ErrNoTraces reports an empty application list.
var ErrNoTraces = errors.New("gearopt: need at least one trace")

// appProfile holds one application's frequency-independent inputs plus the
// per-evaluation scratch buffers, preallocated once so the inner search
// loop allocates only what the gear-set constructor and the balancer
// inherently return.
type appProfile struct {
	comp       []float64 // per-rank computation time at fmax (shared cache Result — read-only)
	origEnergy float64
	skel       *dimemas.Skeleton
	delta      dimemas.DeltaState // memoized retiming state
	usage      []power.Usage      // reusable energy-accounting rows
	freqs      []float64          // reusable per-rank frequency vector
}

// searcher carries the search state; it is confined to one goroutine.
type searcher struct {
	cfg      Config
	pm       *power.Model
	profiles []appProfile
	pscale   []float64 // per-rank power multipliers (nil: homogeneous)
	bal      core.Balancer
	gears    []dvfs.Gear // reusable candidate gear list
	evals    int
}

// minGrid is the finest accepted lattice step in GHz, finer than any gear
// spacing in dvfs. Each coordinate-descent round scores about
// 2·(FMax − FMin/2)/Grid candidates and only the caller's context stops it,
// so an unbounded step lets one request hold a core until its deadline.
const minGrid = 0.001

func (cfg *Config) normalize() error {
	if len(cfg.Traces) == 0 {
		return ErrNoTraces
	}
	if cfg.NGears < 2 {
		return fmt.Errorf("gearopt: need at least 2 gears, got %d", cfg.NGears)
	}
	if cfg.Grid == 0 {
		cfg.Grid = 0.05
	}
	if !(cfg.Grid >= minGrid) || math.IsInf(cfg.Grid, 1) {
		return fmt.Errorf("gearopt: grid step must be finite and at least %v GHz, got %v", minGrid, cfg.Grid)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 8
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("gearopt: negative max rounds %d", cfg.MaxRounds)
	}
	return nil
}

// newSearcher profiles every application once (baseline replay + timing
// skeleton, both shared through the cache when one is configured) and
// preallocates the per-evaluation buffers.
func newSearcher(cfg Config, opts dimemas.Options) (*searcher, error) {
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		cfg:      cfg,
		profiles: make([]appProfile, len(cfg.Traces)),
		pm:       pm,
		bal:      core.Balancer{Beta: opts.Beta, FMax: opts.FMax},
		gears:    make([]dvfs.Gear, cfg.NGears),
	}
	if m := cfg.Machine; m != nil && m.Cap != nil {
		s.bal.FMaxes = m.Cap.FMax
		s.pscale = m.Cap.PowerScale
	}
	nominal := dvfs.GearAt(opts.FMax)
	for i, tr := range cfg.Traces {
		machine, err := dimemas.ResolveMachine(cfg.Platform, cfg.Machine, tr.NumRanks())
		if err != nil {
			return nil, stagerr.Wrap(stagerr.Validate, fmt.Errorf("gearopt: trace %d: %w", i, err))
		}
		res, err := cfg.Cache.ReplayMachine(tr, machine, opts)
		if err != nil {
			return nil, fmt.Errorf("gearopt: profiling trace %d: %w", i, err)
		}
		skel, err := cfg.Cache.SkeletonForMachine(tr, machine, opts)
		if err != nil {
			return nil, fmt.Errorf("gearopt: skeleton for trace %d: %w", i, err)
		}
		n := len(res.Compute)
		p := &s.profiles[i]
		p.comp = res.Compute
		p.skel = skel
		p.usage = make([]power.Usage, n)
		p.freqs = make([]float64, n)
		for r := 0; r < n; r++ {
			p.usage[r] = power.Usage{Gear: nominal, ComputeTime: res.Compute[r], CommTime: res.Comm(r), Scale: s.scaleAt(r)}
		}
		e, err := pm.Energy(p.usage)
		if err != nil {
			return nil, err
		}
		p.origEnergy = e
	}
	return s, nil
}

// scaleAt returns rank r's power multiplier (0 — nominal — when the machine
// is homogeneous; power.Usage treats the zero value as ×1).
func (s *searcher) scaleAt(r int) float64 {
	if s.pscale == nil || r >= len(s.pscale) {
		return 0
	}
	return s.pscale[r]
}

// objective scores one candidate gear placement exactly: assign MAX gears
// per application, retime the skeleton with the assignment, and account the
// energy of the retimed execution — the same arithmetic, in the same order,
// as the full analysis pipeline, so the search value IS the final value.
func (s *searcher) objective(freqs []float64) (float64, error) {
	s.evals++
	if s.cfg.Ctx != nil {
		if err := s.cfg.Ctx.Err(); err != nil {
			return 0, err
		}
	}
	for i, f := range freqs {
		s.gears[i] = dvfs.GearAt(f)
	}
	set, err := dvfs.FromGears("candidate", s.gears)
	if err != nil {
		return 0, err
	}
	s.bal.Set = set
	var sum float64
	for pi := range s.profiles {
		p := &s.profiles[pi]
		a, err := s.bal.Assign(core.MAX, p.comp)
		if err != nil {
			return 0, err
		}
		for r := range p.freqs {
			p.freqs[r] = a.Gears[r].Freq
		}
		// Moving one gear along the lattice often leaves an application's
		// assignment unchanged (no rank lands on that gear), so consecutive
		// candidates repeat a frequency vector; the delta memo answers
		// those repeats without a pass.
		res, err := p.skel.RetimeDelta(&p.delta, p.freqs, nil)
		if err != nil {
			return 0, err
		}
		for r := range p.usage {
			ct := res.Compute[r]
			p.usage[r] = power.Usage{Gear: a.Gears[r], ComputeTime: ct, CommTime: res.Time - ct, Scale: s.scaleAt(r)}
		}
		e, err := s.pm.Energy(p.usage)
		if err != nil {
			return 0, err
		}
		sum += e / p.origEnergy
	}
	return sum / float64(len(s.profiles)), nil
}

// Optimize runs the search. Errors are stage-tagged (internal/stagerr):
// configuration problems carry the validate stage, everything else crosses
// optimize with the origin stage preserved underneath.
func Optimize(cfg Config) (*Result, error) {
	res, err := optimize(cfg)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Optimize, err)
	}
	return res, nil
}

func optimize(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	opts, err := dimemas.ModelOptions(cfg.Beta, cfg.FMax)
	if err != nil {
		return nil, err
	}
	opts.Ctx = cfg.Ctx
	s, err := newSearcher(cfg, opts)
	if err != nil {
		return nil, err
	}

	// Start from the uniform placement.
	freqs := make([]float64, cfg.NGears)
	step := (opts.FMax - dvfs.FMin) / float64(cfg.NGears-1)
	for i := range freqs {
		freqs[i] = dvfs.FMin + float64(i)*step
	}
	freqs[cfg.NGears-1] = opts.FMax
	best, err := s.objective(freqs)
	if err != nil {
		return nil, err
	}

	rounds := 0
	for ; rounds < cfg.MaxRounds; rounds++ {
		improved := false
		// Move every gear but the pinned top one.
		for i := 0; i < cfg.NGears-1; i++ {
			lo := dvfs.FMin / 2 // gears may sink below the limited range
			if i > 0 {
				lo = freqs[i-1] + cfg.Grid
			}
			hi := freqs[i+1] - cfg.Grid
			bestF := freqs[i]
			for f := lo; f <= hi+1e-9; f += cfg.Grid {
				old := freqs[i]
				freqs[i] = f
				v, err := s.objective(freqs)
				if err != nil {
					return nil, err
				}
				if v < best-1e-9 {
					best = v
					bestF = f
					improved = true
				}
				freqs[i] = old
			}
			freqs[i] = bestF
		}
		if !improved {
			break
		}
	}

	gears := make([]dvfs.Gear, len(freqs))
	for i, f := range freqs {
		gears[i] = dvfs.GearAt(f)
	}
	set, err := dvfs.FromGears(fmt.Sprintf("optimized-%d", cfg.NGears), gears)
	if err != nil {
		return nil, err
	}

	// Final scores with full replays. The optimized set's score is already
	// exact (the objective retimes the real execution), but re-deriving it
	// through the analysis pipeline keeps the two code paths honest — the
	// golden tests assert SearchEnergy == Energy bit-for-bit.
	full, err := fullScore(cfg, set)
	if err != nil {
		return nil, err
	}
	uniform, err := dvfs.Uniform(cfg.NGears)
	if err != nil {
		return nil, err
	}
	uniformScore, err := fullScore(cfg, uniform)
	if err != nil {
		return nil, err
	}

	return &Result{
		Set:           set,
		SearchEnergy:  best,
		Energy:        full,
		UniformEnergy: uniformScore,
		Rounds:        rounds,
		Evaluations:   s.evals,
	}, nil
}

// fullScore averages the normalized energy of the analysis pipeline over
// every trace. The traces are independent pipelines over a shared
// read-only cache, so they are evaluated concurrently; the per-trace values
// are summed in trace order, which keeps the result bit-deterministic, and
// the first error in trace order wins (matching the serial loop).
func fullScore(cfg Config, set *dvfs.Set) (float64, error) {
	norms := make([]float64, len(cfg.Traces))
	errs := make([]error, len(cfg.Traces))
	var wg sync.WaitGroup
	for i, tr := range cfg.Traces {
		wg.Add(1)
		go func(i int, tr *trace.Trace) {
			defer wg.Done()
			res, err := analysis.Run(analysis.Config{
				Trace:     tr,
				Platform:  cfg.Platform,
				Machine:   cfg.Machine,
				Power:     cfg.Power,
				Set:       set,
				Algorithm: core.MAX,
				Beta:      cfg.Beta,
				FMax:      cfg.FMax,
				Cache:     cfg.Cache,
				Ctx:       cfg.Ctx,
			})
			if err != nil {
				errs[i] = err
				return
			}
			norms[i] = res.Norm.Energy
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, v := range norms {
		sum += v
	}
	return sum / float64(len(cfg.Traces)), nil
}
