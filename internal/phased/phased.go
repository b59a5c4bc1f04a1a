// Package phased implements the per-phase DVFS extension the paper points
// at in its PEPC discussion: "Such an increase in time for PEPC is due to
// two major computation phases with different load imbalance in one
// iteration, while only a single DVFS setting is used."
//
// Instead of one gear per process for the whole run, the per-phase MAX
// algorithm assigns one gear per (process, computation phase): each phase
// is balanced to its own maximum, so applications with anti-correlated
// phases (PEPC) keep their critical path intact.
//
// Energy accounting note: computation energy is exact (each phase's burst
// runs at its assigned gear). Communication/wait energy is attributed at
// the compute-time-weighted mix of the rank's phase gears, because the
// replay engine models one frequency per rank and cannot track the gear a
// CPU idles at between phases; with phases of similar length the
// approximation error is well below one percent of total energy.
package phased

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// Config parameterizes a per-phase analysis run.
type Config struct {
	Trace    *trace.Trace
	Platform dimemas.Platform
	Power    power.Config
	// Set is the available gear set (no over-clocking: the per-phase
	// algorithm is a MAX variant).
	Set *dvfs.Set
	// Beta is the memory-boundedness parameter (nil = DefaultBeta).
	Beta *float64
	FMax float64
	// Cache optionally memoizes the original (all-ranks-at-FMax) replay so
	// per-phase studies sharing traces with other pipelines skip it. Nil
	// means uncached.
	Cache *dimemas.ReplayCache
}

// Result reports a per-phase analysis.
type Result struct {
	// Phases is the number of computation phases detected per iteration.
	Phases int
	// Gears is the assignment, indexed [phase][rank].
	Gears [][]dvfs.Gear
	// OrigTime/OrigEnergy describe the all-at-fmax run; Time/Energy the
	// per-phase DVFS run.
	OrigTime, OrigEnergy float64
	Time, Energy         float64
	// Norm holds energy/time/EDP normalized to the original run.
	Norm metrics.Result
}

// ErrNoPhases reports a trace without computation phases.
var ErrNoPhases = errors.New("phased: trace has no computation phases")

func (c *Config) normalize() error {
	if c.Trace == nil {
		return errors.New("phased: config needs a trace")
	}
	if c.Set == nil {
		return core.ErrNilSet
	}
	return nil
}

// Run performs the per-phase MAX analysis.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	opts, err := dimemas.ModelOptions(cfg.Beta, cfg.FMax)
	if err != nil {
		return nil, err
	}
	n := cfg.Trace.NumRanks()
	machine, err := dimemas.ResolveMachine(cfg.Platform, nil, n)
	if err != nil {
		return nil, err
	}
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}

	// Original execution at fmax.
	orig, err := cfg.Cache.Original(cfg.Trace, machine.Base, opts)
	if err != nil {
		return nil, fmt.Errorf("phased: original replay: %w", err)
	}
	nominal := dvfs.GearAt(opts.FMax)
	origUsage := make([]power.Usage, n)
	for r := 0; r < n; r++ {
		origUsage[r] = power.Usage{Gear: nominal, ComputeTime: orig.Compute[r], CommTime: orig.Comm(r)}
	}
	origEnergy, err := pm.Energy(origUsage)
	if err != nil {
		return nil, err
	}

	// Per-phase MAX assignments.
	phases := cfg.Trace.PhaseComputeTimes()
	if len(phases) == 0 {
		return nil, ErrNoPhases
	}
	balancer := &core.Balancer{Set: cfg.Set, Beta: opts.Beta, FMax: opts.FMax}
	gears := make([][]dvfs.Gear, len(phases))
	for p, comp := range phases {
		a, err := balancer.Assign(core.MAX, comp)
		if err != nil {
			return nil, fmt.Errorf("phased: phase %d: %w", p, err)
		}
		gears[p] = a.Gears
	}

	// Rewrite the trace with per-phase slowdowns (the paper's Dimemas
	// tracefile modification, per phase instead of per process), then
	// replay at nominal frequency: the durations already carry the scaling.
	scaled := cfg.Trace.ScaleComputePhased(func(rank, phase int) float64 {
		if phase >= len(gears) {
			phase = len(gears) - 1
		}
		return timemodel.Slowdown(opts.Beta, opts.FMax, gears[phase][rank].Freq)
	})
	next, err := dimemas.Simulate(scaled, machine.Base, opts)
	if err != nil {
		return nil, fmt.Errorf("phased: DVFS replay: %w", err)
	}

	// Energy: per-phase compute at its gear; comm at the compute-weighted
	// gear mix (see package comment).
	perPhaseScaled := scaled.PhaseComputeTimes()
	var energy float64
	for r := 0; r < n; r++ {
		var compTotal float64
		var usages []power.Usage
		for p := range perPhaseScaled {
			ct := perPhaseScaled[p][r]
			usages = append(usages, power.Usage{Gear: gears[p][r], ComputeTime: ct})
			compTotal += ct
		}
		comm := next.Time - compTotal
		if compTotal > 0 {
			for p := range usages {
				usages[p].CommTime = comm * usages[p].ComputeTime / compTotal
			}
		} else if len(usages) > 0 {
			usages[0].CommTime = comm
		}
		e, err := pm.Energy(usages)
		if err != nil {
			return nil, err
		}
		energy += e
	}

	return &Result{
		Phases:     len(phases),
		Gears:      gears,
		OrigTime:   orig.Time,
		OrigEnergy: origEnergy,
		Time:       next.Time,
		Energy:     energy,
		Norm:       metrics.NewResult(origEnergy, orig.Time, energy, next.Time),
	}, nil
}
