// Package placement co-optimizes where ranks live on a topology-aware
// machine. The paper balances load by choosing per-rank DVFS gears on a flat
// interconnect; once the machine model resolves transfer costs per rank pair
// (dimemas.Topology), *where* each rank sits becomes a second optimization
// axis: a nearest-neighbour exchange priced over the slow inter-node link
// costs an order of magnitude more than the same exchange within a node.
//
// Optimize runs a deterministic pairwise-swap local search over the
// rank→node placement: every pass proposes each cross-node rank pair swap in
// ascending order, scores the candidate machine with an exact replay, and
// commits strict execution-time improvements. Candidate machines differ in
// topology, so each evaluation rebuilds wire costs from scratch (a fresh
// SimulateMachine); the search is therefore meant for modest rank counts or
// sliced traces, and the pass bound keeps it predictable.
package placement

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dimemas"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// Config parameterizes one placement search.
type Config struct {
	// Trace is the application trace.
	Trace *trace.Trace
	// Machine is the layered machine whose Topo.Placement the search
	// optimizes. It must carry a topology layer; the capability layer (if
	// any) rides along unchanged, so the search co-exists with
	// heterogeneous gear/power optimization.
	Machine dimemas.Machine
	// Freqs optionally fixes per-rank frequencies for the scoring replays
	// (e.g. a gear assignment being co-optimized); nil scores at FMax.
	Freqs []float64
	// Beta is the memory-boundedness parameter; nil selects the paper's
	// default 0.5 (dimemas.ModelOptions).
	Beta *float64
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// MaxPasses bounds the sweep count of the local search (default 4).
	MaxPasses int
	// Ctx optionally bounds the search; it is polled between candidate
	// evaluations and threaded into the replays.
	Ctx context.Context
}

// Result reports one placement search.
type Result struct {
	// App names the optimized trace.
	App string
	// Placement is the optimized rank→node vector.
	Placement []int
	// InitialTime and Time are the exact execution times of the starting
	// and the optimized placement.
	InitialTime, Time float64
	// Swaps counts committed pair swaps; Evaluations counts scored
	// candidates; Passes counts completed sweeps.
	Swaps, Evaluations, Passes int
}

// Errors.
var (
	// ErrNilTrace reports a missing trace.
	ErrNilTrace = errors.New("placement: config needs a trace")
	// ErrNoTopology reports a machine without a topology layer to optimize.
	ErrNoTopology = errors.New("placement: machine has no topology layer")
)

func (c *Config) normalize() error {
	if c.Trace == nil {
		return ErrNilTrace
	}
	if c.Machine.Topo == nil {
		return ErrNoTopology
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 4
	}
	if c.MaxPasses < 0 {
		return fmt.Errorf("placement: negative max passes %d", c.MaxPasses)
	}
	n := c.Trace.NumRanks()
	if c.Freqs != nil && len(c.Freqs) != n {
		return fmt.Errorf("placement: %d frequencies for %d ranks", len(c.Freqs), n)
	}
	if err := c.Machine.ValidateFor(n); err != nil {
		return err
	}
	return nil
}

// Optimize runs the pairwise-swap local search and returns the best
// placement found. The input machine is never mutated. Errors are
// stage-tagged (internal/stagerr): configuration problems carry the
// validate stage, everything else crosses optimize.
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
	opts.Freqs, opts.Ctx = cfg.Freqs, cfg.Ctx

	// Private working copy: the search mutates cand.Topo.Placement in place
	// and must not leak writes into the caller's machine.
	cand := cfg.Machine
	topo := *cfg.Machine.Topo
	topo.Placement = append([]int(nil), cfg.Machine.Topo.Placement...)
	cand.Topo = &topo
	pl := topo.Placement
	n := len(pl)

	evals := 0
	score := func() (float64, error) {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return 0, err
			}
		}
		evals++
		res, err := dimemas.SimulateMachine(cfg.Trace, cand, opts)
		if err != nil {
			return 0, err
		}
		return res.Time, nil
	}

	best, err := score()
	if err != nil {
		return nil, err
	}
	initial := best

	swaps, passes := 0, 0
	for ; passes < cfg.MaxPasses; passes++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pl[i] == pl[j] {
					continue // same node: the swap is a no-op
				}
				pl[i], pl[j] = pl[j], pl[i]
				t, err := score()
				if err != nil {
					return nil, err
				}
				if t < best-1e-12 {
					best = t
					swaps++
					improved = true
				} else {
					pl[i], pl[j] = pl[j], pl[i]
				}
			}
		}
		if !improved {
			break
		}
	}

	return &Result{
		App:         cfg.Trace.App,
		Placement:   pl,
		InitialTime: initial,
		Time:        best,
		Swaps:       swaps,
		Evaluations: evals,
		Passes:      passes,
	}, nil
}

// ShuffledPlacement returns a deterministic pseudo-random permutation of
// BlockPlacement(nranks, perNode) — the locality-oblivious scheduler
// baseline the experiments compare topology-aware placements against.
func ShuffledPlacement(nranks, perNode int, seed int64) []int {
	pl := dimemas.BlockPlacement(nranks, perNode)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pl), func(i, j int) { pl[i], pl[j] = pl[j], pl[i] })
	return pl
}
