package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/stagerr"
)

// BatchItem is one gear assignment of a batched analysis: the parameters
// that vary per what-if question. Everything else — the trace, the platform,
// the power model, β and FMax — comes from the shared Config.
type BatchItem struct {
	// Set is this item's DVFS gear set (required).
	Set *dvfs.Set
	// Algorithm selects MAX or AVG.
	Algorithm core.Algorithm
	// Rounding selects the gear-quantization rule; the zero value is the
	// paper's closest-higher rule.
	Rounding core.Rounding
}

// RunBatch answers len(items) what-if questions about cfg.Trace in one
// pass: the baseline replay, its balance metrics, and the timing skeleton
// are computed once; per-item gear assignments run against the shared
// baseline; and every DVFS replay happens inside a single
// Skeleton.RetimeBatch walk, which amortizes op decode across candidates.
// Each item's Result is bit-identical to what Run would return for the same
// parameters.
//
// The two return slices are index-aligned with items: exactly one of
// results[i], errs[i] is non-nil. Item-level failures (a nil gear set, an
// assignment error) never fail the batch. The error return is reserved for
// shared-stage failures — invalid shared config, baseline replay, skeleton
// construction — which doom every item anyway. cfg.Set, cfg.Algorithm and
// cfg.Rounding are ignored; cfg.RecordTimelines is rejected (batch replays
// never record timelines).
func RunBatch(cfg Config, items []BatchItem) (results []*Result, errs []error, err error) {
	results, errs, err = runBatch(cfg, items)
	if err != nil {
		return nil, nil, stagerr.Wrap(stagerr.Optimize, err)
	}
	return results, errs, nil
}

func runBatch(cfg Config, items []BatchItem) ([]*Result, []error, error) {
	if cfg.Trace == nil {
		return nil, nil, stagerr.Wrap(stagerr.Validate, ErrNilTrace)
	}
	simOpts, machine, err := cfg.model()
	if err != nil {
		return nil, nil, stagerr.Wrap(stagerr.Validate, err)
	}
	if cfg.RecordTimelines {
		return nil, nil, stagerr.New(stagerr.Validate, "analysis: batch runs do not record timelines")
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, nil, err
	}

	// Shared stages, computed once. A nil cache gets a private one, as in
	// Run: the skeleton must be recorded regardless, and its retimings are
	// bit-identical to fresh simulations.
	cache := cfg.Cache
	if cache == nil {
		cache = dimemas.NewReplayCache()
	}
	orig, err := cache.ReplayMachine(cfg.Trace, machine, simOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: original replay: %w", err)
	}
	lb, err := metrics.LoadBalance(orig.Compute)
	if err != nil {
		return nil, nil, err
	}
	pe, err := metrics.ParallelEfficiency(orig.Compute, orig.Time)
	if err != nil {
		return nil, nil, err
	}
	skel, err := cache.SkeletonForMachine(cfg.Trace, machine, simOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: timing skeleton: %w", err)
	}
	nominal := dvfs.GearAt(simOpts.FMax)
	scales := powerScales(&machine)
	origStats, err := runStats(pm, orig, uniformGears(len(orig.Compute), nominal), scales)
	if err != nil {
		return nil, nil, err
	}

	// Per-item assignments. Failed items keep their error; the survivors'
	// frequency vectors line up for one batched retiming.
	results := make([]*Result, len(items))
	errs := make([]error, len(items))
	assignments := make([]*core.Assignment, len(items))
	vecs := make([][]float64, 0, len(items))
	live := make([]int, 0, len(items))
	for i, item := range items {
		if item.Set == nil {
			errs[i] = stagerr.Wrap(stagerr.Validate, core.ErrNilSet)
			continue
		}
		balancer := &core.Balancer{Set: item.Set, Beta: simOpts.Beta, FMax: simOpts.FMax, Rounding: item.Rounding, FMaxes: capFMaxes(&machine)}
		a, err := balancer.Assign(item.Algorithm, orig.Compute)
		if err != nil {
			errs[i] = err
			continue
		}
		assignments[i] = a
		vecs = append(vecs, a.Freqs())
		live = append(live, i)
	}

	if len(vecs) > 0 {
		batch, err := skel.RetimeBatch(vecs)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: batch replay: %w", err)
		}
		for k, i := range live {
			res := batch.At(k)
			newStats, err := runStats(pm, &res, assignments[i].Gears, scales)
			if err != nil {
				errs[i] = err
				continue
			}
			results[i] = &Result{
				App:        cfg.Trace.App,
				Assignment: assignments[i],
				Orig:       origStats,
				New:        newStats,
				Norm:       metrics.NewResult(origStats.Energy, origStats.Time, newStats.Energy, newStats.Time),
				LB:         lb,
				PE:         pe,
			}
		}
	}
	return results, errs, nil
}
